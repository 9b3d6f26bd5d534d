-- Edge statements of the sampler classification, each on a base stream
-- in 1 s windows: sizes that are not integer literals, a zero size,
-- samplers without their cleaning clause, a sampler function without
-- its sampling call, and statements that run two or three sampling
-- families. tests/sampler_edges.rs audits each statement on its own and
-- pins its label, bounds, warnings and shard verdict.

-- 0: the §6.1 dynamic subset-sum query with a computed target.
SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS
WHERE ssample(len, 50 * 2) = TRUE
GROUP BY time/1 as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE;

-- 1: a zero target.
SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS
WHERE ssample(len, 0) = TRUE
GROUP BY time/1 as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE;

-- 2: the reservoir query with a computed size.
SELECT tb, srcIP, destIP FROM TCP
WHERE rsample(5 * 5) = TRUE
GROUP BY time/1 as tb, srcIP, destIP
HAVING rsfinal_clean(count_distinct$(*)) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with() = TRUE;

-- 3: distinct sampling with a computed capacity.
SELECT tb, srcIP, count(*), dscale(), count_distinct$(*) FROM PKT
WHERE dsample(srcIP, 2 * 128) = TRUE
GROUP BY time/1 as tb, srcIP
CLEANING WHEN ddo_clean(count_distinct$(*)) = TRUE
CLEANING BY dclean_with(srcIP) = TRUE;

-- 4: lossy counting with a computed bucket width.
SELECT tb, srcIP, sum(len), count(*) FROM TCP
GROUP BY time/1 as tb, srcIP
HAVING count(*) >= 50
CLEANING WHEN local_count(50 * 2) = TRUE
CLEANING BY count(*) + first(current_bucket()) > current_bucket();

-- 5: the subset-sum threshold read, with no ssample() call.
SELECT tb, srcIP, UMAX(sum(len), ssthreshold()) FROM PKT
GROUP BY time/1 as tb, srcIP;

-- 6: subset-sum without CLEANING WHEN.
SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS
WHERE ssample(len, 100) = TRUE
GROUP BY time/1 as tb, srcIP, destIP, uts;

-- 7: reservoir without CLEANING WHEN.
SELECT tb, srcIP, destIP FROM TCP
WHERE rsample(25) = TRUE
GROUP BY time/1 as tb, srcIP, destIP;

-- 8: min-hash without CLEANING WHEN.
SELECT tb, srcIP, HX FROM TCP
WHERE HX <= Kth_smallest_value$(HX, 10)
GROUP BY time/1 as tb, srcIP, H(destIP) as HX
SUPERGROUP tb, srcIP;

-- 9: min-hash and subset-sum in one WHERE.
SELECT tb, srcIP, HX, UMAX(sum(len), ssthreshold()) FROM TCP
WHERE HX <= Kth_smallest_value$(HX, 10) AND ssample(len, 5) = TRUE
GROUP BY time/1 as tb, srcIP, H(destIP) as HX
SUPERGROUP tb, srcIP
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE;

-- 10: two libraries, subset-sum and reservoir.
SELECT tb, first(count_distinct$(*)) as a, FIRST(COUNT_DISTINCT$(*)) as b,
rsfinal_clean(count_distinct$(*)) as c FROM PKT
WHERE ssample(len, 10) = TRUE AND rsample(5) = TRUE GROUP BY time/1 as tb;

-- 11: three libraries, lossy counting, subset-sum and distinct.
SELECT tb, dscale(), max(len) FROM PKT GROUP BY time/1 as tb
HAVING UMIN(sum(len), ssthreshold()) > 0
CLEANING WHEN count_distinct$() > 3 CLEANING BY local_count(2) = TRUE;

-- 12: distinct sampling without CLEANING WHEN.
SELECT tb, srcIP, count(*) FROM TCP WHERE dsample(srcIP, 100) = TRUE
GROUP BY time/1 as tb, srcIP;
