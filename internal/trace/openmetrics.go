package trace

import (
	"io"
	"strconv"
)

// WriteOpenMetrics writes the Recorder's telemetry — every family of its
// metric set, with the latency histograms' buckets and the T_insecure
// summaries' quantiles — in the OpenMetrics text exposition format (also
// parseable by Prometheus). The output is deterministic: families appear
// in a fixed order, op classes in enum order, chips and channels by
// index, and audit phases/causes in their enum order, so the export is
// bit-identical for any parallel worker count.
func (r *Recorder) WriteOpenMetrics(w io.Writer) error {
	set := r.families(metricSet{})
	var b []byte
	for i := range set.fams {
		f := &set.fams[i]
		b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
		for _, s := range set.series(f) {
			switch f.typ {
			case "histogram":
				// Cumulative le buckets: values below the range count into
				// every finite bucket, values above it only into +Inf.
				bins, cum, _ := s.lat.buckets()
				for i, n := range bins {
					cum += n
					le := strconv.FormatFloat(bucketUpper(i), 'f', -1, 64)
					b = appendSample(b, f.name, "_bucket", float64(cum), f.label, s.label, "le", le)
				}
				b = appendSample(b, f.name, "_bucket", float64(s.n), f.label, s.label, "le", "+Inf")
			case "summary":
				if s.n > 0 {
					b = appendSample(b, f.name, "", s.xs.Quantile(0.5), "quantile", "0.5")
					b = appendSample(b, f.name, "", s.xs.Quantile(0.99), "quantile", "0.99")
				}
			default:
				b = appendSample(b, f.name, "", s.v, f.label, s.label)
				continue
			}
			b = appendSample(b, f.name, "_sum", s.v, f.label, s.label)
			b = appendSample(b, f.name, "_count", float64(s.n), f.label, s.label)
		}
	}
	_, err := w.Write(append(b, "# EOF\n"...))
	return err
}

// appendSample appends one exposition line: the name and suffix, the
// labels given as name, value pairs (a pair with an empty name is
// skipped) and the value.
func appendSample(b []byte, name, suffix string, v float64, labels ...string) []byte {
	b = append(append(b, name...), suffix...)
	sep := byte('{')
	for i := 0; i < len(labels); i += 2 {
		if labels[i] != "" {
			b = append(append(append(append(b, sep), labels[i]...), `="`...), labels[i+1]...)
			b, sep = append(b, '"'), ','
		}
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(appendNum(append(b, ' '), v), '\n')
}
