package server

import (
	"encoding/binary"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// This file is the length-prefixed binary ingest protocol ("ILS1") that
// intellogd serves beside NDJSON HTTP. A client opens a persistent TCP
// connection, writes the 4-byte magic and a Hello frame naming the
// tenant, and then streams Batch frames of structured records; the
// server answers every frame, in order, with an Ack carrying the same
// admission semantics as /v1/ingest (202 accepted, 413 over-budget, 400
// malformed, 503 unavailable) but one: a frame the tenant's queue has no
// room for is held, not refused. The server stops reading until a
// worker frees room, so the client's sends block on TCP's window and no
// frame is ever retransmitted.
//
// Frames are wal.AppendFrame's CRC envelope and a Batch body is
// wal.AppendBatch's layout — the WAL stores the same record bytes. The decode
// side never trusts a length without bounds-checking it first — a
// truncated, oversized or corrupt frame is an error, never a panic or
// over-read (FuzzWireFrame pins this).

// streamMagic opens every binary ingest connection.
const streamMagic = "ILS1"

// streamVersion is the protocol revision carried in Hello.
const streamVersion = 1

// Frame types.
const (
	frameHello byte = 1 // client → server: version, tenant, framework
	frameBatch byte = 2 // client → server: seq + records
	frameAck   byte = 3 // server → client: per-frame admission verdict
)

// Ack statuses (HTTP codes where one exists, so the two wire forms stay
// one vocabulary).
const (
	ackAccepted  = 202 // batch queued
	ackBadRecord = 400 // malformed record (empty message)
	ackTooLarge  = 413 // batch exceeds the whole queue budget
	ackQueueFull = 429 // NDJSON's refusal; on this wire only the server's "hold the frame" verdict, never sent
	ackShutdown  = 503 // server draining, or the write-ahead log failed
)

// --- Hello -------------------------------------------------------------

// appendHello builds a Hello frame body.
func appendHello(dst []byte, tenant string, fw logging.Framework) []byte {
	dst = append(dst, streamVersion)
	dst = wal.AppendString(dst, tenant)
	return wal.AppendString(dst, string(fw))
}

// parseHello decodes a Hello body.
func parseHello(p []byte) (tenant string, fw logging.Framework, err error) {
	if len(p) < 1 {
		return "", "", wal.Errf("hello: empty body")
	}
	if v := p[0]; v != streamVersion {
		return "", "", wal.Errf("hello: unsupported version %d", v)
	}
	p = p[1:]
	tb, p, ok := wal.Bytes(p)
	if !ok {
		return "", "", wal.Errf("hello: bad tenant")
	}
	fb, p, ok := wal.Bytes(p)
	if !ok {
		return "", "", wal.Errf("hello: bad framework")
	}
	if len(p) != 0 {
		return "", "", wal.Errf("hello: %d trailing bytes", len(p))
	}
	return string(tb), logging.Framework(fb), nil
}

// --- Batch -------------------------------------------------------------

// Batch frame bodies are wal.AppendBatch's layout. The connection
// goroutine never materializes their records: filterBatch validates
// each one as a wal.RecordView and passes the bytes on, and the tenant
// worker decodes them, off the ack path.

// --- Ack ---------------------------------------------------------------

// streamAck is one server verdict for one client frame.
type streamAck struct {
	Seq      uint64 // echoes the batch seq (0 for the hello ack)
	Status   int    // ackAccepted, ackQueueFull, ...
	Accepted int
	Skipped  int
	Dead     int    // records dead-lettered out of an accepted batch
	RetryMs  int    // backoff hint; no verdict this server sends sets it
	Msg      string // human-readable detail on errors
}

// appendAck builds an Ack frame body.
func appendAck(dst []byte, a streamAck) []byte {
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = binary.AppendUvarint(dst, uint64(a.Status))
	dst = binary.AppendUvarint(dst, uint64(a.Accepted))
	dst = binary.AppendUvarint(dst, uint64(a.Skipped))
	dst = binary.AppendUvarint(dst, uint64(a.Dead))
	dst = binary.AppendUvarint(dst, uint64(a.RetryMs))
	return wal.AppendString(dst, a.Msg)
}

// parseAck decodes an Ack body.
func parseAck(p []byte) (streamAck, error) {
	var a streamAck
	var ok bool
	if a.Seq, p, ok = wal.Uvarint(p); !ok {
		return a, wal.Errf("ack: bad seq")
	}
	var v uint64
	if v, p, ok = wal.Uvarint(p); !ok || v > 999 {
		return a, wal.Errf("ack: bad status")
	}
	a.Status = int(v)
	if v, p, ok = wal.Uvarint(p); !ok || v > uint64(wal.MaxFrame) {
		return a, wal.Errf("ack: bad accepted count")
	}
	a.Accepted = int(v)
	if v, p, ok = wal.Uvarint(p); !ok || v > uint64(wal.MaxFrame) {
		return a, wal.Errf("ack: bad skipped count")
	}
	a.Skipped = int(v)
	if v, p, ok = wal.Uvarint(p); !ok || v > uint64(wal.MaxFrame) {
		return a, wal.Errf("ack: bad dead count")
	}
	a.Dead = int(v)
	if v, p, ok = wal.Uvarint(p); !ok || v > 1<<30 {
		return a, wal.Errf("ack: bad retry hint")
	}
	a.RetryMs = int(v)
	var b []byte
	if b, p, ok = wal.Bytes(p); !ok {
		return a, wal.Errf("ack: bad message")
	}
	a.Msg = string(b)
	if len(p) != 0 {
		return a, wal.Errf("ack: %d trailing bytes", len(p))
	}
	return a, nil
}
