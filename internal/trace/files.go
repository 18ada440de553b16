package trace

import (
	"fmt"
	"os"

	"repro/internal/sim"
)

// writeFile creates path and streams one exporter into it.
func (r *Recorder) writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}

// WriteChromeFile writes the Chrome trace_event export to path.
func (r *Recorder) WriteChromeFile(path string) error {
	return r.writeFile(path, func(f *os.File) error { return r.WriteChromeTrace(f) })
}

// WriteJSONLFile writes the JSONL event log to path.
func (r *Recorder) WriteJSONLFile(path string) error {
	return r.writeFile(path, func(f *os.File) error { return r.WriteJSONL(f) })
}

// WriteOpenMetricsFile writes the OpenMetrics text exposition to path.
func (r *Recorder) WriteOpenMetricsFile(path string) error {
	return r.writeFile(path, func(f *os.File) error { return r.WriteOpenMetrics(f) })
}

// StreamToFile creates path and enables the periodic telemetry stream
// into it (see StreamTo); the returned closer emits the final point,
// flushes, and closes the file.
func (r *Recorder) StreamToFile(path string, interval int64) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r.StreamTo(f, sim.Micros(interval))
	return func() error {
		serr := r.CloseStream()
		cerr := f.Close()
		if serr != nil {
			return fmt.Errorf("trace: streaming %s: %w", path, serr)
		}
		return cerr
	}, nil
}
