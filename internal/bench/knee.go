package bench

// kneeIndex returns the index of the first element whose value grew less
// than the factor gain over its predecessor (starting from a positive
// predecessor) — the point where further scaling stopped paying — or -1
// when the series keeps growing throughout. The scale experiment uses it
// with gain 1.15: under 15% aggregate gain from doubling the servers.
func kneeIndex(vals []float64, gain float64) int {
	for i := 1; i < len(vals); i++ {
		if vals[i-1] > 0 && vals[i] < vals[i-1]*gain {
			return i
		}
	}
	return -1
}

// saturationPoint is the time-series analogue of kneeIndex: the first
// interval where a resource's utilization pins at or above pin while a
// backlog stands in its queue (the queue grew or held — it is not
// draining). Past that point offered load no longer buys throughput
// (utilization cannot rise) and accumulates as queue depth instead — the
// same growth-stopped-paying shape kneeIndex finds across a parameter
// sweep, read along virtual time. Returns -1 when the resource never
// saturates.
func saturationPoint(util, queue []float64, pin float64) int {
	for i := 1; i < min(len(util), len(queue)); i++ {
		if util[i] >= pin && queue[i] > 0 && queue[i] >= queue[i-1] {
			return i
		}
	}
	return -1
}
