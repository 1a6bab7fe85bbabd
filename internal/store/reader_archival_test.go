package store_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dpm/internal/query"
	"dpm/internal/store"
)

// TestOpenReaderDuringArchival runs readers against a store while its
// writer rotates, compacts and archives in the background. Every
// answer must be a consistent snapshot: no error (a run archived away
// between List and Read restarts the snapshot), no record twice (a run
// listed beside its archive is read once), and per machine exactly the
// records appended so far — a prefix of the machine's stream at least
// as long as the batches finished before the reader opened.
func TestOpenReaderDuringArchival(t *testing.T) {
	const (
		machines = 4
		batches  = 3000
		readers  = 2
	)
	be := store.NewMemBackend()
	st, err := store.Open(be, store.Config{
		Shards: 2, SegmentCap: 4 << 10, Compress: store.CompressBlocks, ArchiveAfter: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Compile("")
	if err != nil {
		t.Fatal(err)
	}
	var appended atomic.Int64 // batches whose AppendBatch returned
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		recs := make([]store.BatchRec, machines)
		for k := 0; k < batches; k++ {
			for m := range recs {
				recs[m] = store.BatchRec{
					Meta: store.Meta{Machine: uint16(m), Time: uint32(k * 10), Type: 1, PID: uint32(100 + m)},
					Line: []byte(fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=0 pid=%d seq=%d", m, k*10, 100+m, k)),
				}
			}
			if err := st.AppendBatch(recs); err != nil {
				t.Error(err)
				return
			}
			appended.Store(int64(k + 1))
		}
	}()
	var answers atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := int(appended.Load())
				rd, err := store.OpenReader(be)
				if err != nil {
					t.Errorf("OpenReader: %v", err)
					return
				}
				res, err := query.Run(rd, q)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				// The batch in flight when the reader finished may show
				// on some machines.
				after := int(appended.Load()) + 1
				seqs := make([]map[int]int, machines)
				for m := range seqs {
					seqs[m] = make(map[int]int)
				}
				for _, e := range res.Events {
					seqs[e.Machine][int(e.Fields["seq"])]++
				}
				for m, got := range seqs {
					n := len(got)
					if n < before || n > after {
						t.Errorf("machine %d: %d records, appended %d..%d", m, n, before, after)
						return
					}
					for seq := 0; seq < n; seq++ {
						if got[seq] != 1 {
							t.Errorf("machine %d: seq %d seen %d times (of %d records)", m, seq, got[seq], n)
							return
						}
					}
				}
				answers.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Archived == 0 {
		t.Fatal("nothing was archived while the readers ran")
	}
	if answers.Load() == 0 {
		t.Fatal("no reader finished a query")
	}
}
