package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
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

	seq uint64 // seq of the last frame sent
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
// server queue holds the frame rather than refusing it, so Send waits
// as long as that takes; any verdict but 202 is an error.
//
// A record whose time the record encoding cannot carry (wal.CheckTime)
// fails the call before any frame is written: the server only sees the
// encoded time, and would take the wrapped instant for the real one.
func (sc *StreamConn) Send(recs []logging.Record) (IngestResponse, error) {
	if err := checkRecordTimes(recs); err != nil {
		return IngestResponse{}, err
	}
	sc.seq++
	if err := sc.sendBatchFrame(sc.seq, recs); err != nil {
		return IngestResponse{}, err
	}
	if err := sc.bw.Flush(); err != nil {
		return IngestResponse{}, err
	}
	return sc.awaitAck(sc.seq)
}

// awaitAck reads the verdict on frame seq. Acks come back in send
// order, so the next one must name seq, and it must accept the batch.
func (sc *StreamConn) awaitAck(seq uint64) (IngestResponse, error) {
	ack, err := sc.readAck()
	if err != nil {
		return IngestResponse{}, err
	}
	if ack.Seq != seq {
		return IngestResponse{}, wal.Errf("ack for seq %d, want %d", ack.Seq, seq)
	}
	if ack.Status != ackAccepted {
		return IngestResponse{}, fmt.Errorf("stream ingest refused (%d): %s", ack.Status, ack.Msg)
	}
	return IngestResponse{Accepted: ack.Accepted, Skipped: ack.Skipped, DeadLettered: ack.Dead}, nil
}

// checkRecordTimes returns the first record time in recs that the
// record encoding cannot carry, as an error naming the record.
func checkRecordTimes(recs []logging.Record) error {
	for i := range recs {
		if err := wal.CheckTime(recs[i].Time); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
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
}

// ReplayStream is Client.Replay over the binary protocol: records shard
// across Concurrency persistent connections by session hash, and each
// connection pipelines up to Window frames. The server acks frames in
// order and holds, rather than refuses, what its queue has no room for,
// so per-session record order survives the pipelining with no retry.
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
	if err := checkRecordTimes(recs); err != nil {
		return ReplayResult{}, err
	}
	return replayShards(recs, opts.Concurrency, func(_ int, recs []logging.Record, st *replayStats) error {
		sc, err := c.DialStream(addr, "")
		if err != nil {
			return err
		}
		defer sc.Close()
		return sc.pipeline(recs, opts, st)
	})
}

// pipeline drives one replay connection: fill the window, read the
// oldest frame's ack, repeat.
func (sc *StreamConn) pipeline(recs []logging.Record, opts StreamReplayOptions, st *replayStats) error {
	var sentAt []time.Time // send time of each frame in flight, oldest first
	for off := 0; off < len(recs) || len(sentAt) > 0; {
		for len(sentAt) < opts.Window && off < len(recs) {
			end := min(off+opts.Batch, len(recs))
			sc.seq++
			if err := sc.sendBatchFrame(sc.seq, recs[off:end]); err != nil {
				return err
			}
			sentAt = append(sentAt, time.Now())
			off = end
		}
		if err := sc.bw.Flush(); err != nil {
			return err
		}
		resp, err := sc.awaitAck(sc.seq - uint64(len(sentAt)) + 1)
		if err != nil {
			return err
		}
		st.latencies = append(st.latencies, time.Since(sentAt[0]))
		st.records += resp.Accepted
		st.batches++
		sentAt = sentAt[1:]
	}
	return nil
}
