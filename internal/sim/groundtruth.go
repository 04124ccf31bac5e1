package sim

// Ground-truth export for the conformance harness: the simulator knows
// exactly which sessions a fault touched (JobResult.Affected), and the
// harness scores detection against that annotation. These helpers give
// the annotation a deterministic, aggregate shape.

// SessionIDs returns every session ID of one job, in session order.
func (r *JobResult) SessionIDs() []string {
	out := make([]string, 0, len(r.Sessions))
	for _, s := range r.Sessions {
		out = append(out, s.ID)
	}
	return out
}

// MergeAffected unions the Affected annotations of several jobs into one
// ground-truth set.
func MergeAffected(jobs []*JobResult) map[string]bool {
	out := map[string]bool{}
	for _, j := range jobs {
		for id := range j.Affected {
			out[id] = true
		}
	}
	return out
}
