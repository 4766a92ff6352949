package serving

import (
	"fmt"
	"sync/atomic"
	"time"

	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
)

// Generate implements Generator on the router: generation routes and fails
// over like predict. Failover is only safe before the sequence exists on a
// replica, so the router prefetches the first token — a replica that is
// down, or lacks the generate endpoint, fails there and the request moves
// on; once a token has arrived the sequence is pinned to its replica and
// later transport loss surfaces as an ErrClosed finish (tokens already
// streamed to the consumer cannot be unstreamed).
func (r *Router) Generate(model string, req generate.Request) (generate.Stream, error) {
	if sp := r.splitFor(model); sp != nil && sp.take() {
		model = sp.target
	}
	if req.Deadline.IsZero() {
		req.Deadline = time.Now().Add(r.opts.DefaultDeadline)
	}
	span := telemetry.StartRoot("router_generate").Arg("model", model)

	reps := r.snapshot()
	maxAttempts := r.opts.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(reps) {
		maxAttempts = len(reps)
	}
	tried := make(map[*replica]bool, maxAttempts)
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rep := r.pick(reps, tried)
		if rep == nil {
			break
		}
		tried[rep] = true
		if attempt > 0 {
			r.retries.Add(1)
			mRetries.Inc()
		}
		rep.outstanding.Add(1)
		mRouterOutstanding.Add(1)
		gs, err := OpenGenerateStream(rep.client, span.Context(), model, req)
		if err == nil {
			// Prefetch: the open itself rarely fails (streams ride a lazy
			// mux), so the first token — or the finish — is the admission
			// answer that decides failover.
			if _, ok := gs.Next(); ok {
				gs.next-- // unread: the consumer's first Next returns it
			} else if _, ferr := gs.Finish(); ferr != nil {
				err = ferr
			}
		}
		if err != nil {
			rep.outstanding.Add(-1)
			mRouterOutstanding.Add(-1)
			lastErr = err
			if isNoStreamHandlerErr(err) || isTransportErr(err) {
				r.failovers.Add(1)
				mFailovers.Inc()
				r.bench(rep)
				span.Arg("benched", rep.addr)
				if time.Now().After(req.Deadline) {
					span.End()
					return nil, ErrDeadline
				}
				continue
			}
			span.End()
			return nil, err // deterministic application outcome: no failover
		}
		r.routed.Add(1)
		mRouted.Inc()
		return &routedGenStream{GenerateStream: gs, rep: rep, span: span}, nil
	}
	span.End()
	if lastErr == nil {
		lastErr = fmt.Errorf("serving: no replica available")
	}
	return nil, fmt.Errorf("serving: all replicas failed: %w", lastErr)
}

// routedGenStream relays the replica's stream (whose Buffered counts the
// unread prefetched token) and releases the replica's outstanding slot
// exactly once when the sequence ends (or is cancelled).
type routedGenStream struct {
	*GenerateStream
	rep      *replica
	span     *telemetry.Span
	released atomic.Bool
}

func (s *routedGenStream) Next() (generate.Token, bool) {
	tok, ok := s.GenerateStream.Next()
	if !ok {
		s.release()
	}
	return tok, ok
}

func (s *routedGenStream) Cancel() {
	s.GenerateStream.Cancel()
	s.release()
}

func (s *routedGenStream) release() {
	if s.released.CompareAndSwap(false, true) {
		s.rep.outstanding.Add(-1)
		mRouterOutstanding.Add(-1)
		s.span.End()
	}
}

var _ generate.Stream = (*routedGenStream)(nil)
