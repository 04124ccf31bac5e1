package server

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// StreamConn is one persistent binary-protocol ingest connection (see
// wirebin.go) for the client's tenant. It is not safe for concurrent
// use; replay opens one connection per worker.
type StreamConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wbuf []byte // frame build buffer, reused per send
	rbuf []byte // frame read buffer, reused per ack

	seq     uint64
	refused bool // last Send was refused; retry must reuse its seq
}

// DialStream opens a binary ingest connection to addr (the daemon's
// -stream-addr listener), performs the magic/Hello exchange for the
// client's tenant, and returns the ready connection. fw may be empty
// for the server default.
func (c *Client) DialStream(addr string, fw logging.Framework) (*StreamConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	sc := &StreamConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 256<<10),
	}
	sc.wbuf = append(sc.wbuf, streamMagic...)
	sc.wbuf = wal.AppendFrame(sc.wbuf, frameHello, appendHello(nil, c.Tenant, fw))
	if _, err := sc.bw.Write(sc.wbuf); err != nil {
		conn.Close()
		return nil, err
	}
	if err := sc.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	ack, err := sc.readAck()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ack.Status != ackAccepted {
		conn.Close()
		return nil, fmt.Errorf("stream hello refused (%d): %s", ack.Status, ack.Msg)
	}
	return sc, nil
}

// Close tears the connection down.
func (sc *StreamConn) Close() error { return sc.conn.Close() }

// sendBatchFrame writes (without flushing) one Batch frame.
func (sc *StreamConn) sendBatchFrame(seq uint64, recs []logging.Record) error {
	sc.wbuf = wal.AppendFrame(sc.wbuf[:0], frameBatch, wal.AppendBatch(nil, seq, recs))
	_, err := sc.bw.Write(sc.wbuf)
	return err
}

// readAck reads the next Ack frame.
func (sc *StreamConn) readAck() (streamAck, error) {
	typ, body, rbuf, err := wal.ReadFrame(sc.br, sc.rbuf, 0)
	sc.rbuf = rbuf
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return streamAck{}, err
	}
	if typ != frameAck {
		return streamAck{}, wal.Errf("expected ack, got frame type %d", typ)
	}
	return parseAck(body)
}

// Send ships one batch and waits for its verdict — the synchronous
// counterpart of Client.IngestRecords over the binary wire. A full
// queue returns ErrQueueFull carrying the server's backoff hint;
// calling Send again retransmits under the refused sequence number, as
// the protocol's ordering contract requires.
func (sc *StreamConn) Send(recs []logging.Record) (IngestResponse, error) {
	if !sc.refused {
		sc.seq++
	}
	if err := sc.sendBatchFrame(sc.seq, recs); err != nil {
		return IngestResponse{}, err
	}
	if err := sc.bw.Flush(); err != nil {
		return IngestResponse{}, err
	}
	ack, err := sc.readAck()
	if err != nil {
		return IngestResponse{}, err
	}
	if ack.Seq != sc.seq {
		return IngestResponse{}, wal.Errf("ack for seq %d, want %d", ack.Seq, sc.seq)
	}
	switch ack.Status {
	case ackAccepted:
		sc.refused = false
		return IngestResponse{Accepted: ack.Accepted, Skipped: ack.Skipped, DeadLettered: ack.Dead}, nil
	case ackQueueFull:
		sc.refused = true
		return IngestResponse{}, ErrQueueFull{RetryAfter: time.Duration(ack.RetryMs) * time.Millisecond}
	default:
		sc.refused = true
		return IngestResponse{}, fmt.Errorf("stream ingest refused (%d): %s", ack.Status, ack.Msg)
	}
}

// StreamReplayOptions tunes a binary-protocol load replay.
type StreamReplayOptions struct {
	// Batch is the records-per-frame batch size (default 256).
	Batch int
	// Concurrency is the number of parallel connections; records shard
	// across them by session hash (default 1).
	Concurrency int
	// Window is the per-connection pipelining depth: how many frames may
	// be in flight unacked (default 4).
	Window int
	// MaxRetries bounds retries per frame on 429 (default 50).
	MaxRetries int
}

// ReplayStream is Client.Replay over the binary protocol: records shard
// across Concurrency persistent connections by session hash, each
// connection pipelines up to Window frames, and a refused frame is
// retransmitted go-back-N style (the refused frame and everything sent
// after it, in order) so per-session record order survives both the
// backpressure and the pipelining.
func (c *Client) ReplayStream(addr string, recs []logging.Record, opts StreamReplayOptions) (ReplayResult, error) {
	if opts.Batch <= 0 {
		opts.Batch = 256
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.Window <= 0 {
		opts.Window = 4
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 50
	}

	shards := partitionBySession(recs, opts.Concurrency)

	type workerStat struct {
		records, batches, rejected int
		latencies                  []time.Duration
		err                        error
	}
	stats := make([]workerStat, opts.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, recs []logging.Record) {
			defer wg.Done()
			st := &stats[w]
			rng := rand.New(rand.NewSource(int64(w) + 1))
			sc, err := c.DialStream(addr, "")
			if err != nil {
				st.err = err
				return
			}
			defer sc.Close()
			st.err = replayStreamWorker(sc, recs, opts, rng, func(lat time.Duration, accepted int) {
				st.latencies = append(st.latencies, lat)
				st.records += accepted
				st.batches++
			}, func() { st.rejected++ })
		}(w, shards[w])
	}
	wg.Wait()

	res := ReplayResult{Duration: time.Since(start)}
	var lat []time.Duration
	for i := range stats {
		if stats[i].err != nil {
			return res, stats[i].err
		}
		res.Records += stats[i].records
		res.Batches += stats[i].batches
		res.Rejected += stats[i].rejected
		lat = append(lat, stats[i].latencies...)
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.P50 = lat[len(lat)/2]
		res.P99 = lat[(len(lat)*99)/100]
	}
	if secs := res.Duration.Seconds(); secs > 0 {
		res.RecPerSec = float64(res.Records) / secs
	}
	return res, nil
}

// replayStreamWorker drives one connection: fill the window, read the
// oldest verdict, and on a refusal drain the doomed tail's 425s, back
// off, and retransmit the whole window under the original sequence
// numbers.
func replayStreamWorker(sc *StreamConn, recs []logging.Record, opts StreamReplayOptions,
	rng *rand.Rand, onAck func(time.Duration, int), onReject func()) error {
	type flight struct {
		seq    uint64
		recs   []logging.Record
		sentAt time.Time
	}
	var inflight []flight
	retries := 0
	off := 0
	for off < len(recs) || len(inflight) > 0 {
		for len(inflight) < opts.Window && off < len(recs) {
			end := off + opts.Batch
			if end > len(recs) {
				end = len(recs)
			}
			sc.seq++
			f := flight{seq: sc.seq, recs: recs[off:end], sentAt: time.Now()}
			if err := sc.sendBatchFrame(f.seq, f.recs); err != nil {
				return err
			}
			inflight = append(inflight, f)
			off = end
		}
		if err := sc.bw.Flush(); err != nil {
			return err
		}
		ack, err := sc.readAck()
		if err != nil {
			return err
		}
		front := &inflight[0]
		if ack.Seq != front.seq {
			return wal.Errf("ack for seq %d, want %d", ack.Seq, front.seq)
		}
		switch ack.Status {
		case ackAccepted:
			onAck(time.Since(front.sentAt), ack.Accepted)
			inflight = inflight[1:]
			retries = 0
		case ackQueueFull:
			onReject()
			retries++
			if retries > opts.MaxRetries {
				return fmt.Errorf("frame still refused after %d retries: queue full", opts.MaxRetries)
			}
			// The frames pipelined behind the refused one were bounced
			// with 425 (retry-early); consume those verdicts so the ack
			// stream realigns, then retransmit the window in order.
			for i := 1; i < len(inflight); i++ {
				tail, err := sc.readAck()
				if err != nil {
					return err
				}
				if tail.Seq != inflight[i].seq || tail.Status != ackRetryEarly {
					return wal.Errf("expected 425 for seq %d, got %d for seq %d",
						inflight[i].seq, tail.Status, tail.Seq)
				}
			}
			retrySleep(retryDelay(time.Duration(ack.RetryMs)*time.Millisecond, rng))
			for i := range inflight {
				inflight[i].sentAt = time.Now()
				if err := sc.sendBatchFrame(inflight[i].seq, inflight[i].recs); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("stream ingest refused (%d): %s", ack.Status, ack.Msg)
		}
	}
	return nil
}
