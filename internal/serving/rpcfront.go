package serving

import (
	"context"
	"encoding/json"

	"tfhpc/internal/rpc"
)

// RPCMux is anything serving methods can be registered on: an rpc.Server,
// or a cluster.Server — which is how model replicas are co-hosted on
// cluster worker tasks next to their training-side variables and
// collectives.
type RPCMux interface {
	HandleCtx(method string, h rpc.CtxHandler)
	HandleStream(method string, h rpc.StreamHandler)
}

// Attach registers the framed binary serving endpoint on mux. Tensors ride
// persistent streams; the unary call path carries control messages only:
//
//	ServingPredictStream   stream: see PredictStreamMethod
//	ServingGenerateStream  stream: see GenerateStreamMethod
//	ServingModels          call, resp: JSON []ModelStatus
//	ServingStats           call, resp: the same JSON payload as /statsz
func Attach(mux RPCMux, p Predictor) {
	mux.HandleCtx("ServingModels", func(context.Context, []byte) ([]byte, error) {
		return json.Marshal(p.Models())
	})
	mux.HandleCtx("ServingStats", func(context.Context, []byte) ([]byte, error) {
		return p.StatsJSON()
	})
	mux.HandleStream(PredictStreamMethod, func(st *rpc.Stream) error {
		return servePredictStream(p, st)
	})
	mux.HandleStream(GenerateStreamMethod, func(st *rpc.Stream) error {
		return serveGenerateStream(p, st)
	})
}

// isTransportErr reports whether err means the replica itself failed (dial
// refused, conn reset, local deadline while waiting) rather than answering
// with an application error — the failover-worthy class. Canonical serving
// errors mapped back from the remote side are application outcomes, not
// replica failures.
func isTransportErr(err error) bool {
	return err != nil && !rpc.IsRemote(err) && statusOf(err) == stError
}
