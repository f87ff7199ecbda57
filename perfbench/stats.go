package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p90 needs at least 100 samples.
const minBeyond = 10

// dist summarizes one set of latency samples.
type dist struct {
	N        int     // samples
	P50      float64 // median, ms
	P90      float64 // 90th percentile, ms
	Beyond90 int     // samples above the p90 rank
}

// summarize sorts a copy of samples and picks the nearest-rank median
// and p90.
func summarize(samples []time.Duration) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r50, r90 := rank(n, 0.50), rank(n, 0.90)
	return dist{
		N:        n,
		P50:      ms(s[r50]),
		P90:      ms(s[r90]),
		Beyond90: n - 1 - r90,
	}
}

// rank is the 0-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(q*float64(n)+0.999999999) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// needSamples is the sample count at which summarize's p90 has
// minBeyond samples beyond it.
func needSamples() int { return minBeyond * 10 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float values (for set-up repeats); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTimes is the machine-wide CPU time from /proc/stat's cpu line, in
// clock ticks.
type cpuTimes struct{ total, steal float64 }

func cpuSteal() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTimes
	for i, f := range fields[1:9] { // user … steal
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// since is the share of CPU time stolen by other guests between then
// and t, in percent.
func (t cpuTimes) since(then cpuTimes) float64 {
	if t.total == then.total {
		return 0
	}
	return (t.steal - then.steal) / (t.total - then.total) * 100
}
