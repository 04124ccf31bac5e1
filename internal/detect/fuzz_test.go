package detect

// Native fuzz target for the streaming detector: the fuzzer invents an
// interleaving of sessions and messages (trained, non-NL, novel, and raw
// garbage), and the stream path must (a) match batch detection exactly
// and (b) keep every configured resource cap under a capped
// configuration without panicking. This is the conformance
// package's differential oracle driven by generated interleavings
// instead of simulated corpora. Run continuously with:
//
//	go test -run '^$' -fuzz FuzzStreamConsume ./internal/detect/

import (
	"fmt"
	"testing"
	"time"

	"intellog/internal/logging"
)

func FuzzStreamConsume(f *testing.F) {
	// One fixture detector for the whole run; its lookup cache is
	// concurrency-safe and lookups are deterministic, so sharing it across
	// iterations only makes the fuzzing faster.
	d := fixture(f)
	f.Add([]byte{0x00, 0x11, 0x22, 0x33})
	f.Add([]byte("\x00\x01\x02\x10\x11\x12\x20\x21\x22"))
	f.Add([]byte{0x04, 0x14, 0x24, 0x05, 0x15, 0x25, 0x06})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 512 {
			data = data[:512]
		}
		// Decode the bytes into a record stream: high nibble picks one of
		// four sessions, low nibble picks the message (trained pair, non-NL,
		// novel, garbage variants).
		t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
		recs := make([]logging.Record, 0, len(data))
		for i, b := range data {
			id := fmt.Sprintf("s%d", (b>>4)&3)
			var msg string
			switch b & 7 {
			case 0:
				msg = "Registering worker node_07"
			case 1:
				msg = "Registered worker node_07"
			case 2:
				msg = "bufstart=11 bufend=22"
			case 3:
				msg = "Totally novel failure on host8:1234"
			case 4:
				msg = fmt.Sprintf("garbage %d from byte %d", i, b)
			default:
				end := i + 8
				if end > len(data) {
					end = len(data)
				}
				msg = "raw " + string(data[i:end])
			}
			recs = append(recs, logging.Record{
				SessionID: id, Message: msg, Level: logging.Info,
				Framework: logging.Spark, Time: t0.Add(time.Duration(i) * time.Second),
			})
		}

		assertStreamMatchesBatch(t, d, recs)

		// Capped configuration: caps must hold at every step and the run
		// must finish cleanly regardless of the interleaving.
		consumeCapped(t, d, StreamConfig{IdleTimeout: 3 * time.Second, MaxSessions: 2, MaxSessionMsgs: 2}, recs)
	})
}
