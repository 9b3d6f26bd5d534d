-- Two cascades whose high level samples: a low aggregation per flow
-- feeding a dynamic subset-sum query, then one feeding a reservoir
-- query. A base-stream FROM starts the second pipeline.
SELECT tb, srcIP, destIP, sum(len) as bytes, count(*) as cnt FROM TCP
GROUP BY time/10 as tb, srcIP, destIP;

SELECT tb2, srcIP, destIP, UMAX(sum(bytes), ssthreshold()) FROM FLOWS
WHERE ssample(bytes, 50) = TRUE
GROUP BY tb/6 as tb2, srcIP, destIP
HAVING ssfinal_clean(sum(bytes), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(bytes)) = TRUE;

SELECT tb, srcIP, destIP, count(*) as cnt FROM PKT
GROUP BY time/5 as tb, srcIP, destIP;

SELECT tb2, srcIP, destIP FROM PAIRS
WHERE rsample(20) = TRUE
GROUP BY tb/12 as tb2, srcIP, destIP
HAVING rsfinal_clean(count_distinct$(*)) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with() = TRUE;
