package serving

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkPredictSingle measures the unbatched serving path: one row, one
// session run, through admission and the batcher machinery.
func BenchmarkPredictSingle(b *testing.B) {
	svc := NewService(NewRegistry(), BatchOptions{MaxBatch: 1, DefaultDeadline: 10 * time.Second})
	defer svc.Close()
	mv, err := NewLinear("m", 1, linearWeights(256, 1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.ServeModel(mv); err != nil {
		b.Fatal(err)
	}
	row := sliceRow(randRows(1, 256, 1), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Predict("m", row, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatcherClosedLoop drives the default batcher with a fixed number
// of closed-loop clients — each sends its next row when the last is
// answered — on a model with a row kernel and on one without, where every
// flush pays a session run. Batch size should track the offered
// concurrency: the 16- and 32-client rows are where a batcher that waits
// for a full batch falls off a cliff.
func BenchmarkBatcherClosedLoop(b *testing.B) {
	for _, kind := range []string{"kernel", "session"} {
		for _, clients := range []int{1, 4, 16, 32, 64} {
			b.Run(fmt.Sprintf("%s/clients=%d", kind, clients), func(b *testing.B) {
				svc := NewService(NewRegistry(), BatchOptions{DefaultDeadline: 10 * time.Second})
				defer svc.Close()
				mv, err := NewLinear("m", 1, linearWeights(256, 1))
				if err != nil {
					b.Fatal(err)
				}
				if kind == "session" {
					mv.rowKernel = nil
				}
				if _, err := svc.ServeModel(mv); err != nil {
					b.Fatal(err)
				}
				row := sliceRow(randRows(1, 256, 1), 0)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if _, err := svc.Predict("m", row, time.Time{}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
				b.ReportMetric(svc.Snapshots()[0].MeanBatch, "rows/batch")
			})
		}
	}
}
