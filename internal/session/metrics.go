package session

import "tfhpc/internal/telemetry"

var (
	mStreamBytes = telemetry.NewCounter("tfhpc_session_stream_bytes_total",
		"Bytes session clients moved over their partition streams, sent plus received.")
	mPartitions = telemetry.NewGauge("tfhpc_session_partitions",
		"Partitions registered on this process's task hosts.")
)
