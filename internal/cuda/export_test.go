package cuda

// NoteLaunches journals n launches on a fresh recording journal, launch i
// with the parameter words words(i), as Launch notes each after it ran, and
// returns the trace.
func NoteLaunches(n int, words func(i int) []uint32) *Trace {
	j := &journal{trace: &Trace{}}
	for i := 0; i < n; i++ {
		j.note(&traceCall{kind: callLaunch, fn: "k", params: words(i)}, nil)
	}
	return j.trace
}

// LaunchWords returns the parameter words the trace keeps for its call i.
func (t *Trace) LaunchWords(i int) []uint32 { return t.calls[i].params }
