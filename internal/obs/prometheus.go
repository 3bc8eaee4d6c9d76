package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format (version
// 0.0.4) for a Registry: every series — counters, gauges and histograms —
// is emitted with sanitized names, # HELP/# TYPE headers, and stable
// (sorted) ordering, so scrapes are diffable and the golden tests can pin
// the layout.

// PrometheusContentType is the Content-Type HTTP header value for the text
// exposition format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes a dotted hierarchical series name into a valid
// Prometheus metric name: dots and any other invalid runes become
// underscores, and a leading digit is prefixed with one.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			r >= '0' && r <= '9' && i > 0
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if valid {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func appendPromFloat(buf []byte, v float64) []byte {
	switch {
	case v != v:
		return append(buf, "NaN"...)
	case v > 1.797e308:
		return append(buf, "+Inf"...)
	case v < -1.797e308:
		return append(buf, "-Inf"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// WritePrometheus writes every registered series in the Prometheus text
// exposition format, sorted by name. Counter samples are cumulative totals,
// gauge samples instantaneous reads, histograms the standard
// _bucket{le=...}/_sum/_count triplet with cumulative bucket counts.
//
// Gauge read closures run outside the registry lock, under whatever
// synchronization their registrant documented (internal/serve calls this
// while holding its own mutex, matching its gauge contract).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := r.namesLocked()
	type series struct {
		name string
		m    metric
		h    *Histogram
		help string
	}
	all := make([]series, 0, len(names))
	for _, n := range names {
		all = append(all, series{name: n, m: r.metrics[n], h: r.hists[n], help: r.help[n]})
	}
	r.mu.Unlock()

	buf := make([]byte, 0, 64*len(all))
	for _, s := range all {
		pn := PromName(s.name)
		help := s.help
		if help == "" {
			help = "series " + s.name
		}
		buf = append(buf, "# HELP "...)
		buf = append(buf, pn...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(help)...)
		buf = append(buf, '\n')
		buf = append(buf, "# TYPE "...)
		buf = append(buf, pn...)
		buf = append(buf, ' ')
		buf = append(buf, s.m.kind.String()...)
		buf = append(buf, '\n')
		if s.m.kind == KindHistogram && s.h != nil {
			buf = appendPromHistogram(buf, pn, s.h.Snapshot())
			continue
		}
		buf = append(buf, pn...)
		buf = append(buf, ' ')
		buf = appendPromFloat(buf, s.m.read())
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

func appendPromHistogram(buf []byte, pn string, snap HistogramSnapshot) []byte {
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		buf = append(buf, pn...)
		buf = append(buf, `_bucket{le="`...)
		buf = appendPromFloat(buf, bound)
		buf = append(buf, `"} `...)
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	cum += snap.Counts[len(snap.Bounds)]
	buf = append(buf, pn...)
	buf = append(buf, `_bucket{le="+Inf"} `...)
	buf = strconv.AppendUint(buf, cum, 10)
	buf = append(buf, '\n')
	buf = append(buf, pn...)
	buf = append(buf, "_sum "...)
	buf = appendPromFloat(buf, snap.Sum)
	buf = append(buf, '\n')
	buf = append(buf, pn...)
	buf = append(buf, "_count "...)
	buf = strconv.AppendUint(buf, snap.Count, 10)
	buf = append(buf, '\n')
	return buf
}

// ParsePrometheus parses the subset of the text exposition format that
// WritePrometheus emits — `name value` and `name{le="bound"} value` sample
// lines — into a flat map (bucket samples keyed as `name{le="bound"}`).
// Comment and blank lines are skipped. It is the scrape-side counterpart
// used by cmd/fpbtop and the exposition tests; unparseable lines are
// reported in the returned slice rather than aborting the scrape.
func ParsePrometheus(text string) (map[string]float64, []string) {
	out := make(map[string]float64)
	var bad []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			bad = append(bad, line)
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			bad = append(bad, line)
			continue
		}
		out[line[:sp]] = v
	}
	return out, bad
}

// HistogramQuantile estimates a quantile from scraped cumulative
// `name{le=...}` bucket samples (as produced by ParsePrometheus over a
// WritePrometheus exposition), with the same bucket-upper-bound
// quantization as Histogram.Quantile. ok is false when no buckets for the
// metric are present or the histogram is empty.
func HistogramQuantile(samples map[string]float64, name string, q float64) (float64, bool) {
	prefix := name + `_bucket{le="`
	type bkt struct {
		le  float64
		cum float64
	}
	var buckets []bkt
	for k, v := range samples {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, `"}`) {
			continue
		}
		les := k[len(prefix) : len(k)-2]
		le, err := strconv.ParseFloat(les, 64)
		if err != nil {
			if les == "+Inf" {
				le = math.Inf(1)
			} else {
				continue
			}
		}
		buckets = append(buckets, bkt{le: le, cum: v})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	target := q * total
	var lastFinite float64
	for _, b := range buckets {
		if !math.IsInf(b.le, 1) {
			lastFinite = b.le
		}
		if b.cum >= target && b.cum > 0 {
			if math.IsInf(b.le, 1) {
				return lastFinite, true
			}
			return b.le, true
		}
	}
	return lastFinite, true
}
