package serving

import (
	"sync/atomic"

	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
)

// Generate implements Predictor on the router: generation routes and fails
// over like predict (the same attempt loop). Failover is only safe before
// the sequence exists on a replica, so the router prefetches the first
// token — a replica that is down fails there and the request moves on; once
// a token has arrived the sequence is pinned to its replica and later
// transport loss surfaces as an ErrClosed finish (tokens already streamed to
// the consumer cannot be unstreamed).
func (r *Router) Generate(model string, req generate.Request) (generate.Stream, error) {
	model, _ = r.arm(model)
	req.Deadline = r.withDefault(req.Deadline)
	span := telemetry.StartRoot("router_generate").Arg("model", model)
	var gs *GenerateStream
	rep, err := r.attempt(span, req.Deadline, func(rep *replica) (err error) {
		if gs, err = OpenGenerateStream(rep.client, span.Context(), model, req); err != nil {
			return err
		}
		// Prefetch: the open itself rarely fails (streams ride a lazy mux),
		// so the first token — or the finish — is the admission answer that
		// decides failover.
		if _, ok := gs.Next(); ok {
			gs.next-- // unread: the consumer's first Next returns it
			return nil
		}
		_, err = gs.Finish()
		return err
	})
	if err != nil {
		span.End()
		return nil, err
	}
	return &routedGenStream{GenerateStream: gs, rep: rep, span: span}, nil
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
		s.rep.track(-1)
		s.span.End()
	}
}

var _ generate.Stream = (*routedGenStream)(nil)
