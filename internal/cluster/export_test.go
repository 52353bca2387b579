package cluster

// ForwardedPatterns lists the forwarding table's mux patterns, so the
// parity test can check it covers every row.
func ForwardedPatterns() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.Pattern
	}
	return out
}
