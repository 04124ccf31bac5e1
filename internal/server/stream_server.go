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
	"intellog/internal/metrics"
	"intellog/internal/wal"
)

// helloTimeout bounds how long a fresh connection may dawdle before
// completing the magic + Hello exchange.
const helloTimeout = 30 * time.Second

// ServeStream accepts binary-protocol ingest connections on ln until
// the listener is closed (then it returns nil) or fails. Each
// connection serves one tenant, named in its Hello frame; record
// admission, backpressure and counters are exactly the NDJSON
// handler's, answered as Ack frames instead of HTTP statuses.
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
	conn.SetReadDeadline(time.Time{})

	resolver := t.resolver()

	// resyncSeq, when non-zero, is the refused frame the client must
	// retransmit next; frames with any other seq bounce with 425 so the
	// accepted stream keeps per-session order (go-back-N).
	var resyncSeq uint64
	for {
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
			sendAck(streamAck{Status: ackShutdown, Msg: "server draining"})
			return nil
		default:
		}
		// Decode into a rented batch (decodeBatch appends into — and may
		// grow — its backing array; either way the batch keeps it).
		// Ownership passes to admitStreamBatch; the refusal paths before
		// it release here.
		b := s.batches.Get()
		seq, recs, err := decodeBatch(body, resolver, b.Recs[:0])
		b.Recs = recs
		if err != nil {
			b.Release()
			return err
		}
		if resyncSeq != 0 && seq != resyncSeq {
			b.Release()
			if err := sendAck(streamAck{Seq: seq, Status: ackRetryEarly}); err != nil {
				return err
			}
			continue
		}
		ack := s.admitStreamBatch(t, fw, seq, b)
		if ack.Status == ackAccepted {
			resyncSeq = 0
		} else {
			resyncSeq = seq
		}
		if err := sendAck(ack); err != nil {
			return err
		}
	}
}

// admitStreamBatch validates and admits one decoded batch, mirroring
// handleIngest's admission rules record for record: an invalid record
// (no message, oversized) dead-letters individually instead of failing
// the frame, so one bad record no longer rejects its neighbors. The
// batch passes to tenant.admit, which owns it on every outcome (a
// refused frame is retransmitted and decoded into a fresh rental); this
// only renders the verdict as an ack.
func (s *Server) admitStreamBatch(t *tenant, fw logging.Framework, seq uint64, b *batch.Batch) streamAck {
	recs := b.Recs
	kept := recs[:0]
	skipped := 0
	var dead []wal.DeadLetter
	for i := range recs {
		if reason := s.validateStreamRecord(&recs[i]); reason != "" {
			dead = append(dead, wal.DeadLetter{Reason: reason, Line: deadLetterLine(&recs[i])})
			continue
		}
		if recs[i].SessionID == "" {
			skipped++
			continue
		}
		if recs[i].Framework == "" {
			recs[i].Framework = fw
		}
		kept = append(kept, recs[i])
	}
	b.Recs = kept
	switch verdict, err := t.admit(b, skipped, dead); verdict {
	case admitTooLarge:
		return streamAck{Seq: seq, Status: ackTooLarge, Skipped: skipped,
			Msg: "batch exceeds the tenant queue budget; split it"}
	case admitWALFailed:
		return streamAck{Seq: seq, Status: ackShutdown, Skipped: skipped,
			Msg: "write-ahead log failed; batch not accepted: " + err.Error()}
	case admitQueueFull:
		return streamAck{Seq: seq, Status: ackQueueFull, Skipped: skipped,
			RetryMs: 1000, Msg: "ingest queue full"}
	}
	s.reg.Counter("intellogd_stream_batches_total",
		"binary ingest batches accepted, per tenant",
		metrics.Label{Key: "tenant", Value: t.name}).Inc()
	return streamAck{Seq: seq, Status: ackAccepted,
		Accepted: len(kept), Skipped: skipped, Dead: len(dead)}
}

// validateStreamRecord applies per-record validation to a structured
// (binary-wire) record; a non-empty reason dead-letters it. Size is
// judged on the string payload, the analogue of the NDJSON line cap.
func (s *Server) validateStreamRecord(rec *logging.Record) string {
	if rec.Message == "" {
		return "record has no message"
	}
	size := len(rec.Message) + len(rec.Source) + len(rec.SessionID) +
		len(rec.TemplateID) + len(rec.Framework)
	if size > s.cfg.MaxRecordBytes {
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
