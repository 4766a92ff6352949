package telemetry

// setTraceCap lowers the trace buffer bound for one test; the returned func
// restores it.
func setTraceCap(n int) (restore func()) {
	tracer.mu.Lock()
	old := traceCap
	traceCap = n
	tracer.mu.Unlock()
	return func() {
		tracer.mu.Lock()
		traceCap = old
		tracer.mu.Unlock()
	}
}
