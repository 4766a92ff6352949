package rpc

import "tfhpc/internal/telemetry"

// Registry handles for the transport tier, resolved once at package init so
// the per-call and per-frame paths pay one atomic op each — the stream
// credit-stall pair is only touched on the already-blocked branch of Send,
// keeping the chunk-relay AllocsPerRun==0 gate intact.
var (
	mCalls = telemetry.NewCounter("tfhpc_rpc_calls_total",
		"Client rpc calls issued, one per attempt.")
	mCallErrors = telemetry.NewCounter("tfhpc_rpc_call_errors_total",
		"Client rpc calls that returned an error (transport or remote).")
	mServed = telemetry.NewCounter("tfhpc_rpc_served_total",
		"Calls dispatched by the rpc server.")
	mCreditStalls = telemetry.NewCounter("tfhpc_stream_credit_stalls_total",
		"Stream sends that blocked on an exhausted flow-control window.")
	mCreditStallSeconds = telemetry.NewHistogram("tfhpc_stream_credit_stall_seconds",
		"Time stream sends spent blocked waiting for credit.", telemetry.DurationBuckets)
)
