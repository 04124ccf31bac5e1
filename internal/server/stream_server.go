package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"intellog/internal/batch"
	"intellog/internal/logging"
	"intellog/internal/wal"
)

// helloTimeout bounds how long a fresh connection may dawdle before
// completing the magic + Hello exchange.
const helloTimeout = 30 * time.Second

// streamIdleTimeout bounds how long an established connection may go without
// sending a frame; a peer that stalls longer is closed, so it cannot pin
// its goroutine and read buffer forever. It sits far above any pause of
// a live client: the replay client and the bench/ load generator send
// continuously once connected, and the load generator's longest gap
// (batch detection between setup and warm-up) is seconds.
const streamIdleTimeout = 2 * time.Minute

// ServeStream accepts binary-protocol ingest connections on ln until
// the listener is closed (then it returns nil) or fails. Each
// connection serves one tenant, named in its Hello frame; record
// admission and counters are exactly the NDJSON handler's, answered as
// Ack frames instead of HTTP statuses. Backpressure differs: where
// NDJSON answers a full queue with 429, a stream connection holds the
// frame until there is room (see awaitRoom).
func (s *Server) ServeStream(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.trackConn(conn, true)
		s.reg.Counter("intellogd_stream_connections_total",
			"binary ingest connections accepted").Inc()
		go func() {
			defer s.trackConn(conn, false)
			defer conn.Close()
			if err := s.serveStreamConn(conn); err != nil &&
				!errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				log.Printf("intellogd: stream conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// trackConn registers live stream connections so Close/Kill can sever
// them (their goroutines would otherwise outlive the server).
func (s *Server) trackConn(conn net.Conn, add bool) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if add {
		if s.streamConns == nil {
			s.streamConns = map[net.Conn]struct{}{}
		}
		s.streamConns[conn] = struct{}{}
	} else {
		delete(s.streamConns, conn)
	}
}

// closeStreamConns severs every live binary-protocol connection.
func (s *Server) closeStreamConns() {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for conn := range s.streamConns {
		conn.Close()
	}
}

// serveStreamConn runs one binary ingest connection: magic, Hello,
// then Batch frames acked in arrival order. Acks buffer through bw and
// flush only when no further frame is already readable, so a
// pipelining client gets its verdicts in batches instead of one
// syscall each.
func (s *Server) serveStreamConn(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return err
	}
	if string(magic[:]) != streamMagic {
		return wal.Errf("bad magic %q", magic[:])
	}

	maxFrame := int(s.cfg.MaxBodyBytes)
	var fbuf, abuf []byte
	sendAck := func(a streamAck) error {
		abuf = wal.AppendFrame(abuf[:0], frameAck, appendAck(nil, a))
		if _, err := bw.Write(abuf); err != nil {
			return err
		}
		// Batched acks: another frame already buffered means the client
		// is pipelining — hold the flush and let its verdict share the
		// write.
		if br.Buffered() > 0 {
			return nil
		}
		return bw.Flush()
	}

	typ, body, fbuf, err := wal.ReadFrame(br, fbuf, maxFrame)
	if err != nil {
		return err
	}
	if typ != frameHello {
		return wal.Errf("expected hello, got frame type %d", typ)
	}
	tenantName, fw, err := parseHello(body)
	if err != nil {
		sendAck(streamAck{Status: ackBadRecord, Msg: err.Error()})
		return err
	}
	if fw == "" {
		fw = s.cfg.DefaultFramework
	}
	if !fw.Known() {
		err := wal.Errf("unknown framework %q", fw)
		sendAck(streamAck{Status: ackBadRecord, Msg: err.Error()})
		return err
	}
	t, err := s.Tenant(tenantName)
	if err != nil {
		st := 500
		switch {
		case errors.Is(err, errBadTenant):
			st = ackBadRecord
		case errors.As(err, &errUnknownTenant{}):
			st = 404
		}
		sendAck(streamAck{Status: st, Msg: err.Error()})
		return err
	}
	if err := sendAck(streamAck{Status: ackAccepted}); err != nil {
		return err
	}

	for {
		conn.SetReadDeadline(time.Now().Add(s.streamIdle))
		typ, body, fbuf, err = wal.ReadFrame(br, fbuf, maxFrame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Clean end of stream: client closed after its last ack.
				return nil
			}
			return err
		}
		if typ != frameBatch {
			return wal.Errf("unexpected frame type %d", typ)
		}
		select {
		case <-s.closed:
			sendAck(streamAck{Status: ackShutdown, Msg: errDraining.Error()})
			return nil
		default:
		}
		// Validate into a rented batch. Ownership passes to
		// admitStreamBatch once it admits or refuses the batch; the paths
		// that end the connection before that release here.
		seq, count, recs, err := wal.ParseBatchHeader(body)
		if err != nil {
			return err
		}
		b := s.batches.Get()
		skipped, dead, err := s.filterBatch(fw, count, recs, b)
		if err != nil {
			b.Release()
			return err
		}
		ack := s.admitStreamBatch(t, seq, b, skipped, dead)
		for ack.Status == ackQueueFull {
			// Hold the batch. sendAck defers its flush while frames are
			// buffered, and a client whose window is full waits on one of
			// those acks, so flush them before waiting.
			if err := bw.Flush(); err != nil {
				b.Release()
				return err
			}
			if t, err = s.awaitRoom(t); err != nil {
				b.Release()
				sendAck(streamAck{Seq: seq, Status: ackShutdown, Msg: err.Error()})
				if errors.Is(err, errDraining) {
					return nil
				}
				return err
			}
			if ack = s.admitStreamBatch(t, seq, b, skipped, dead); ack.Status == ackAccepted {
				// Pass the wake-up on: the room may fit another waiter's
				// batch too.
				t.wake()
			}
		}
		if err := sendAck(ack); err != nil {
			return err
		}
	}
}

// errDraining answers a frame that arrives, or is waiting for room,
// once the server has begun to shut down.
var errDraining = errors.New("server draining")

// awaitRoom blocks a connection holding a batch that t's queue had no
// room for until a retry can succeed, and returns the tenant to retry
// on: t once a worker has woken it (tenant.wake), or, once t has closed
// in an LRU eviction, the instance loaded in its place. The connection
// reads nothing meanwhile, so the client's sends block on TCP's own
// window: one connection carries one ordered stream, so that window is
// all the flow control ILS1 needs, and every session keeps its order
// with no frame refused or sent twice.
func (s *Server) awaitRoom(t *tenant) (*tenant, error) {
	select {
	case <-t.room:
	case <-t.gone:
	case <-s.closed:
	}
	// Shutdown closes every tenant too, so it is checked first.
	select {
	case <-s.closed:
		return nil, errDraining
	default:
	}
	select {
	case <-t.gone:
		return s.Tenant(t.name)
	default:
		return t, nil
	}
}

// filterBatch applies handleIngest's admission rules, record for record,
// to count encoded records and fills b with the ones kept: an invalid
// record (no message, oversized) dead-letters individually instead of
// failing the frame, a record with no session is skipped, and one with
// no framework takes the connection's. Each record is only validated,
// as a wal.RecordView, never materialized. When nothing is dropped or
// filled the body is recs, copied into b once; otherwise it is the kept
// records' byte ranges, and only the records that took a framework are
// re-encoded. A record that does not decode, or bytes left over after
// count records, fail the frame.
func (s *Server) filterBatch(fw logging.Framework, count int, recs []byte, b *batch.Batch) (skipped int, dead []wal.DeadLetter, err error) {
	b.Grow(len(recs))
	var v wal.RecordView
	p := recs
	run := 0 // start of the pending run of records kept as they are
	for i := 0; i < count; i++ {
		start := len(recs) - len(p)
		if p, err = wal.DecodeRecordView(p, &v); err != nil {
			return 0, nil, fmt.Errorf("batch: record %d: %w", i, err)
		}
		reason := s.validateRecord(&v)
		switch {
		case reason == "" && len(v.SessionID) > 0 && len(v.Framework) > 0:
			b.N++
			continue
		case reason != "":
			rec := v.Record()
			dead = append(dead, wal.DeadLetter{Reason: reason, Line: deadLetterLine(&rec)})
		case len(v.SessionID) == 0:
			skipped++
		}
		b.Body = append(b.Body, recs[run:start]...)
		run = len(recs) - len(p)
		if reason == "" && len(v.SessionID) > 0 {
			b.Body = wal.AppendRecordView(b.Body, &v, []byte(fw))
			b.N++
		}
	}
	if len(p) != 0 {
		return 0, nil, wal.Errf("batch: %d trailing bytes", len(p))
	}
	b.Body = append(b.Body, recs[run:]...)
	return skipped, dead, nil
}

// admitStreamBatch makes one admission attempt for a filtered batch and
// renders the verdict as an ack. It owns b on every verdict but a full
// queue: that returns an ackQueueFull which is never sent, and the
// connection keeps b and tries again once awaitRoom returns.
func (s *Server) admitStreamBatch(t *tenant, seq uint64, b *batch.Batch, skipped int, dead []wal.DeadLetter) streamAck {
	accepted := b.Len()
	verdict, err := t.enqueue(b)
	if verdict == admitQueueFull {
		return streamAck{Seq: seq, Status: ackQueueFull}
	}
	t.settle(b, verdict, skipped, dead)
	switch verdict {
	case admitTooLarge:
		return streamAck{Seq: seq, Status: ackTooLarge, Skipped: skipped,
			Msg: "batch exceeds the tenant queue budget; split it"}
	case admitWALFailed:
		return streamAck{Seq: seq, Status: ackShutdown, Skipped: skipped,
			Msg: "write-ahead log failed; batch not accepted: " + err.Error()}
	}
	t.streamBatches.Inc()
	return streamAck{Seq: seq, Status: ackAccepted,
		Accepted: accepted, Skipped: skipped, Dead: len(dead)}
}

// validateRecord applies per-record validation to a structured record
// (either wire's); a non-empty reason dead-letters it. Size is judged
// on the string payload, the analogue of the NDJSON line cap.
func (s *Server) validateRecord(v *wal.RecordView) string {
	if len(v.Message) == 0 {
		return "record has no message"
	}
	if size := v.Size(); size > s.cfg.MaxRecordBytes {
		return fmt.Sprintf("record payload of %d bytes exceeds the %d-byte record cap",
			size, s.cfg.MaxRecordBytes)
	}
	return ""
}

// deadLetterLine renders a structured record as the NDJSON wire line
// the DLQ stores, so a binary-wire dead letter requeues through the
// same path as an HTTP one.
func deadLetterLine(rec *logging.Record) string {
	if out, ok := appendWireRecord(nil, rec); ok {
		return string(out[:len(out)-1]) // strip the trailing newline
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return ""
	}
	return string(b)
}
