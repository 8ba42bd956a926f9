package multiping

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"sciera/internal/addr"
	"sciera/internal/stats"
)

// Save writes the dataset as JSON.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Write streams the dataset as JSON.
func (d *Dataset) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// Load reads a dataset written by Save.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Dataset
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("multiping: decoding dataset: %w", err)
	}
	return &d, nil
}

// usable applies the paper's exclusion rule: intervals where the ICMP
// measurements were missing (tool stall) are excluded from both planes
// "to ensure a fair comparison".
func usable(r *Record) bool { return !r.IPMissing }

// PingCDFs builds the Figure 5 distributions: RTTs over all usable ping
// intervals, for SCION (minimum of the three paths) and IP.
func (d *Dataset) PingCDFs() (scion, ip *stats.CDF) {
	scion, ip = &stats.CDF{}, &stats.CDF{}
	for i := range d.Records {
		r := &d.Records[i]
		if !usable(r) {
			continue
		}
		if r.SCIONOK > 0 && r.SCIONRTTms >= 0 {
			scion.Add(r.SCIONRTTms)
		}
		if r.IPRTTms >= 0 {
			ip.Add(r.IPRTTms)
		}
	}
	return scion, ip
}

// Pair identifies an ordered AS pair.
type Pair struct {
	Src, Dst addr.IA
}

// PairRatios builds the Figure 6 distribution: for each AS pair, the
// ratio of the mean SCION RTT to the mean IP RTT over the campaign.
func (d *Dataset) PairRatios() map[Pair]float64 {
	sums := make(map[Pair][2]float64)
	counts := make(map[Pair][2]int)
	for i := range d.Records {
		r := &d.Records[i]
		if !usable(r) {
			continue
		}
		p := Pair{r.Src, r.Dst}
		s, c := sums[p], counts[p]
		if r.SCIONOK > 0 && r.SCIONRTTms >= 0 {
			s[0] += r.SCIONRTTms
			c[0]++
		}
		if r.IPRTTms >= 0 {
			s[1] += r.IPRTTms
			c[1]++
		}
		sums[p], counts[p] = s, c
	}
	out := make(map[Pair]float64)
	for p, s := range sums {
		c := counts[p]
		if c[0] == 0 || c[1] == 0 {
			continue
		}
		out[p] = (s[0] / float64(c[0])) / (s[1] / float64(c[1]))
	}
	return out
}

// RatioOverTime builds the Figure 7 series: the mean SCION/IP RTT ratio
// across all pairs, bucketed by the given width.
func (d *Dataset) RatioOverTime(bucket time.Duration) []stats.Bucket {
	ts := stats.NewTimeSeries(bucket.Seconds())
	for i := range d.Records {
		r := &d.Records[i]
		if !usable(r) || r.SCIONOK == 0 || r.SCIONRTTms < 0 || r.IPRTTms <= 0 {
			continue
		}
		ts.Observe(r.T.Seconds(), r.SCIONRTTms/r.IPRTTms)
	}
	return ts.Buckets()
}

// MaxActivePaths builds the Figure 8 matrix: the highest active path
// count observed per pair.
func (d *Dataset) MaxActivePaths() map[Pair]int {
	out := make(map[Pair]int)
	for _, s := range d.PathCounts {
		p := Pair{s.Src, s.Dst}
		if s.Count > out[p] {
			out[p] = s.Count
		}
	}
	return out
}

// MedianPathDeviation builds the Figure 9 matrix: the median deviation
// from the pair's maximum active path count, weighted by how long each
// probe result was in effect (probes only run on change, so each count
// holds until the next probe).
func (d *Dataset) MedianPathDeviation(campaign time.Duration, interval time.Duration) map[Pair]int {
	byPair := make(map[Pair][]PathCountSample)
	for _, s := range d.PathCounts {
		p := Pair{s.Src, s.Dst}
		byPair[p] = append(byPair[p], s)
	}
	max := d.MaxActivePaths()
	out := make(map[Pair]int)
	for p, samples := range byPair {
		sort.Slice(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
		// Expand into per-interval observations.
		var devs []int
		for i, s := range samples {
			end := campaign
			if i+1 < len(samples) {
				end = samples[i+1].T
			}
			n := int((end - s.T) / interval)
			if n < 1 {
				n = 1
			}
			for k := 0; k < n; k++ {
				devs = append(devs, max[p]-s.Count)
			}
		}
		sort.Ints(devs)
		out[p] = devs[len(devs)/2]
	}
	return out
}

// LatencyInflation builds the Figure 10a distribution: per full path
// probe, the ratio d2/d1 of the second-lowest to the lowest path RTT
// among all active paths of the pair.
func (d *Dataset) LatencyInflation() *stats.CDF {
	c := &stats.CDF{}
	for _, s := range d.PathCounts {
		if s.BestMS > 0 && s.SecondMS > 0 {
			c.Add(s.SecondMS / s.BestMS)
		}
	}
	return c
}

// ProbeInflation is the probe-level variant: per measurement interval,
// the ratio of the second-lowest to the lowest RTT among the three
// probe paths actually pinged.
func (d *Dataset) ProbeInflation() *stats.CDF {
	c := &stats.CDF{}
	for i := range d.Records {
		r := &d.Records[i]
		if !usable(r) {
			continue
		}
		var ok []float64
		for _, v := range r.RTTms {
			if v >= 0 {
				ok = append(ok, v)
			}
		}
		if len(ok) < 2 {
			continue
		}
		sort.Float64s(ok)
		if ok[0] > 0 {
			c.Add(ok[1] / ok[0])
		}
	}
	return c
}

// SuccessRatio reports the fraction of SCION probe intervals with at
// least one successful path.
func (d *Dataset) SuccessRatio() float64 {
	total, ok := 0, 0
	for i := range d.Records {
		total++
		if d.Records[i].SCIONOK > 0 {
			ok++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}
