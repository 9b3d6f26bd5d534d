-- Base-stream statements only, one for each finding the file tools
-- raise: W103, W301-W304, a parse error, and an analyzer error on a
-- statement that shares a prefilter with its neighbours.
SELECT tb, count(*) FROM PKT WHERE len >= 100 GROUP BY time/5 as tb;
SELECT tb, count(*) FROM PKT WHERE 100 <= len GROUP BY time/5 as tb;
SELECT tb, count(*) FROM PKT WHERE len >= 250 GROUP BY time/5 as tb;
SELECT tb, count(*) FROM PKT WHERE len >= 100 GROUP BY time/10 as tb;
SELECT tb, nosuch FROM PKT WHERE len >= 100 GROUP BY time/5 as tb;
SELECT tb, srcIP, count(*) FROM TCP WHERE dsample(srcIP, 100) = TRUE GROUP BY time/5 as tb, srcIP;
SELECT tb, srcIP, count(*) FROM TCP WHERE dsample(srcIP, 100) = TRUE GROUP BY time/5 as tb, srcIP;
SELECT FROM WHERE;
