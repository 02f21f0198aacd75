package replay

// codec.go is the WRPLAY03 binary format: an 8-byte magic followed by
// self-framing records — tag byte, uvarint payload length, payload — in
// chronological order: one begin record, then one step record per executed
// step with the snapshots taken after it, then the end record. The framing
// makes the stream kill-tolerant: Load accepts a truncated tail (the
// process died mid-run) and returns the intact prefix, which still carries
// every completed snapshot; only the end record, written by Finish, marks
// a recording replayable end to end.
//
// A step record holds every decision the adversary made at that step, in
// the order the engine asks for them:
//
//	uvarint  step
//	bool     ActivateAll; unless set, the activation mask
//	bool     DeliverAll; unless set, uvarint link count, then one varint
//	         delivery count per link
//
// and, on plan runs only,
//
//	         the crash mask; the recover mask (the nodes whose recover
//	         kind is not RecoverNone), then one kind byte per recovering
//	         node, in id order; the resend mask
//	varint   the plan's cumulative healed count after the step
//	uvarint  fate count, then one byte per delivery fate in global (link,
//	         queue-position) order, each corrupt fate followed by its
//	         rewrite (uvarint length, bytes)
//	bool     the Settled verdict, present only when the step's fixpoint
//	         probe drew one
//
// A mask is a uvarint count, then ⌈count/8⌉ bytes, LSB first. Every count
// must equal the size of the run's decision it fills: the decoder reads
// straight into the engine's own decision buffers and allocates only the
// rewrites it hands back.
//
// WRPLAY03 differs from WRPLAY02 in two places. The recover kinds, one
// byte per node in WRPLAY02 and nearly all RecoverNone, became the recover
// mask and the kinds of the set bits. And the fixpoint probe runs every 8
// steps rather than every max(n, 64), so a recording holds Settled
// verdicts at other steps: a WRPLAY02 recording would misreplay, and Load
// rejects it by its magic.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"weakmodels/internal/enc"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// replayMagic identifies the format and its version.
const replayMagic = "WRPLAY03"

// Record tags.
const (
	recBegin byte = 1 // run shape: sync, hasPlan, corrupts
	recStep  byte = 2 // one executed step's decisions
	recSnap  byte = 3 // one engine snapshot (engine binary form)
	recEnd   byte = 4 // final step + fixpoint flag; seals the recording
)

// recordWriter frames records onto a writer with a sticky error.
type recordWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (rw *recordWriter) emit(tag byte, payload []byte) {
	if rw.err != nil {
		return
	}
	rw.buf = append(rw.buf[:0], tag)
	rw.buf = enc.Uvarint(rw.buf, uint64(len(payload)))
	rw.buf = append(rw.buf, payload...)
	_, rw.err = rw.w.Write(rw.buf)
}

func (rw *recordWriter) snapshot(s *engine.Snapshot) {
	if rw.err != nil {
		return
	}
	data, err := s.MarshalBinary()
	if err != nil {
		rw.err = fmt.Errorf("replay: serialize snapshot at step %d: %w", s.Step, err)
		return
	}
	rw.emit(recSnap, data)
}

func encodeBegin(rec *Recording) []byte {
	var b []byte
	b = enc.Bool(b, rec.Sync)
	b = enc.Bool(b, rec.HasPlan)
	b = enc.Bool(b, rec.Corrupts)
	return b
}

func encodeEnd(rec *Recording) []byte {
	var b []byte
	b = enc.Varint(b, int64(rec.FinalStep))
	b = enc.Bool(b, rec.Fixpoint)
	return b
}

// appendMask writes the length of v, then one flag per entry, set when
// the entry is not T's zero value, eight flags to a byte, the lowest index
// in the lowest bit. Every flag is or-ed in as its 0/1 value with no
// branch on it: on random:0.5 activation masks that branch would be a
// coin flip.
func appendMask[T comparable](b []byte, v []T) []byte {
	var zero T
	b = enc.Uvarint(b, uint64(len(v)))
	var acc byte
	for i, x := range v {
		acc |= bit(x != zero) << (i % 8)
		if i%8 == 7 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(v)%8 != 0 {
		b = append(b, acc)
	}
	return b
}

// bit is x as 0 or 1. The compiler lowers it to a zero-extension of the
// bool's byte, without a branch.
func bit(x bool) byte {
	if x {
		return 1
	}
	return 0
}

// appendSchedule opens a step record: the step number and the schedule
// decision.
func appendSchedule(b []byte, t int, dec *schedule.Decision) []byte {
	b = enc.Uvarint(b, uint64(t))
	b = enc.Bool(b, dec.ActivateAll)
	if !dec.ActivateAll {
		b = appendMask(b, dec.Activate)
	}
	b = enc.Bool(b, dec.DeliverAll)
	if !dec.DeliverAll {
		b = enc.Uvarint(b, uint64(len(dec.Deliver)))
		for _, d := range dec.Deliver {
			b = enc.Varint(b, int64(d))
		}
	}
	return b
}

// appendPlan continues a step record with the plan decision and the
// plan's healed count. The fate count that follows is only known when the
// step closes (see Recorder.closeStep).
func appendPlan(b []byte, dec *fault.Decision, healed int64) []byte {
	b = appendMask(b, dec.Crash)
	b = appendMask(b, dec.Recover)
	for _, k := range dec.Recover {
		if k != fault.RecoverNone {
			b = append(b, byte(k))
		}
	}
	b = appendMask(b, dec.Resend)
	return enc.Varint(b, healed)
}

// stepOf reads the step number off a well-formed step record.
func stepOf(b []byte) int {
	t, _ := binary.Uvarint(b)
	return int(t)
}

// stepReader decodes one step record field by field, in record order.
// The players read each step straight into the engine's decisions with
// it; Load runs it over every record before keeping the record.
type stepReader struct {
	enc.Reader
	corrupts bool   // corrupt fates are allowed
	fates    uint64 // fates not yet read
	rewrite  bool   // the last fate read was corrupt; its rewrite is next
}

// open starts on record b and returns its step number.
func (s *stepReader) open(b []byte, corrupts bool) (int, error) {
	*s = stepReader{Reader: *enc.NewReader(b), corrupts: corrupts}
	t := s.Uvarint()
	if err := s.Err(); err != nil {
		return 0, err
	}
	if t < 1 || t > math.MaxInt {
		return 0, fmt.Errorf("step number %d out of range", t)
	}
	return int(t), nil
}

// count reads the uvarint count of a run-sized field: it must equal the
// run's size want, and its entries, at least bits bits each, must fit in
// the bytes left.
func (s *stepReader) count(what string, want, bits int) error {
	k := s.Uvarint()
	if err := s.Err(); err != nil {
		return err
	}
	if k != uint64(want) {
		return fmt.Errorf("%s covers %d entries, run has %d", what, k, want)
	}
	if need := (k*uint64(bits) + 7) / 8; need > uint64(s.Len()) {
		return fmt.Errorf("%s needs %d bytes, %d left", what, need, s.Len())
	}
	return nil
}

func (s *stepReader) mask(what string, dst []bool) error {
	if err := s.count(what, len(dst), 1); err != nil {
		return err
	}
	var acc byte
	for i := range dst {
		if i%8 == 0 {
			acc = s.Byte()
		}
		dst[i] = acc&(1<<(i%8)) != 0
	}
	return s.Err()
}

// schedule reads the schedule decision into dec, which the engine has
// just reset.
func (s *stepReader) schedule(dec *schedule.Decision) error {
	if dec.ActivateAll = s.Bool(); !dec.ActivateAll {
		if err := s.mask("activation mask", dec.Activate); err != nil {
			return err
		}
	}
	if dec.DeliverAll = s.Bool(); !dec.DeliverAll {
		if err := s.count("delivery counts", len(dec.Deliver), 8); err != nil {
			return err
		}
		for l := range dec.Deliver {
			d := s.Varint()
			if d != int64(int32(d)) {
				return fmt.Errorf("link %d delivery count %d out of range", l, d)
			}
			dec.Deliver[l] = int32(d)
		}
	}
	return s.Err()
}

// recoverKinds reads the recover mask and the kinds of its set bits into
// dst: a second reader walks the mask while the first reads the kinds
// behind it. A set bit must carry RecoverResume or RecoverReset.
func (s *stepReader) recoverKinds(dst []fault.RecoverKind) error {
	if err := s.count("recover mask", len(dst), 1); err != nil {
		return err
	}
	mask := s.Reader
	for range (len(dst) + 7) / 8 {
		s.Byte()
	}
	var acc byte
	for v := range dst {
		if v%8 == 0 {
			acc = mask.Byte()
		}
		dst[v] = fault.RecoverNone
		if acc&(1<<(v%8)) == 0 {
			continue
		}
		k := s.Byte()
		if err := s.Err(); err != nil {
			return err
		}
		if k == byte(fault.RecoverNone) || k > byte(fault.RecoverReset) {
			return fmt.Errorf("node %d: recover kind %d in the recover mask", v, k)
		}
		dst[v] = fault.RecoverKind(k)
	}
	return s.Err()
}

// plan reads the plan decision into dec and returns the healed count; the
// step's fates follow.
func (s *stepReader) plan(dec *fault.Decision) (int64, error) {
	if err := s.mask("crash mask", dec.Crash); err != nil {
		return 0, err
	}
	if err := s.recoverKinds(dec.Recover); err != nil {
		return 0, err
	}
	if err := s.mask("resend mask", dec.Resend); err != nil {
		return 0, err
	}
	healed := s.Varint()
	s.fates = s.Uvarint()
	if err := s.Err(); err != nil {
		return 0, err
	}
	if s.fates > uint64(s.Len()) {
		return 0, fmt.Errorf("%d fates, %d bytes left", s.fates, s.Len())
	}
	return healed, nil
}

// fate reads the next delivery fate.
func (s *stepReader) fate() (fault.Fate, error) {
	if s.fates == 0 || s.rewrite {
		return 0, errors.New("no fate recorded for this delivery")
	}
	s.fates--
	b := s.Byte()
	if err := s.Err(); err != nil {
		return 0, err
	}
	f := fault.Fate(b)
	switch {
	case b > byte(fault.FateCorrupt):
		return 0, fmt.Errorf("unknown fate %d", b)
	case f == fault.FateCorrupt && !s.corrupts:
		return 0, errors.New("corrupt fate in a recording whose plan cannot corrupt")
	}
	s.rewrite = f == fault.FateCorrupt
	return f, nil
}

// rewritten reads the rewrite of the corrupt fate just read.
func (s *stepReader) rewritten() (string, error) {
	if !s.rewrite {
		return "", errors.New("no rewrite recorded for this delivery")
	}
	s.rewrite = false
	msg := s.String()
	return msg, s.Err()
}

// settled reads the step's Settled verdict, the record's last field.
func (s *stepReader) settled() (bool, error) {
	if s.fates > 0 || s.rewrite || s.Len() == 0 {
		return false, errors.New("no Settled verdict recorded at this point")
	}
	ok := s.Bool()
	return ok, s.Close()
}

// check decodes a whole step record into scratch decisions, exactly as
// the players will serve it, and returns its step number, which must
// follow prev.
func (s *stepReader) check(b []byte, rec *Recording, prev int, sdec *schedule.Decision, fdec *fault.Decision) (int, error) {
	t, err := s.open(b, rec.Corrupts)
	if err != nil {
		return 0, err
	}
	if t <= prev {
		return 0, fmt.Errorf("step %d after step %d", t, prev)
	}
	if err := s.schedule(sdec); err != nil {
		return 0, err
	}
	if rec.HasPlan {
		if _, err := s.plan(fdec); err != nil {
			return 0, err
		}
		for s.fates > 0 {
			f, err := s.fate()
			if err == nil && f == fault.FateCorrupt {
				_, err = s.rewritten()
			}
			if err != nil {
				return 0, err
			}
		}
		if s.Len() > 0 {
			if _, err := s.settled(); err != nil {
				return 0, err
			}
		}
	}
	return t, s.Close()
}

// Load decodes a WRPLAY03 recording. The machine and numbering decode the
// embedded snapshots (the machine supplies the gob state template) and
// size the decisions every step record must fill, and must be the ones the
// run was recorded with. A truncated tail — the recording process was
// killed mid-run — is not an error: Load returns the intact prefix, with
// FinalStep 0 when the end record is missing.
func Load(r io.Reader, m machine.Machine, p *port.Numbering) (*Recording, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(replayMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("replay: read header: %w", err)
	}
	if string(magic) != replayMagic {
		return nil, fmt.Errorf("replay: bad magic %q, want %q", magic, replayMagic)
	}
	n, links := p.Graph().N(), p.Routes().NumPorts()
	sdec, fdec := schedule.NewDecision(n, links), fault.NewDecision(n, links)
	var sr stepReader
	rec := &Recording{}
	sawBegin, sawEnd, last := false, false, 0
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("replay: read record tag: %w", err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil || size > math.MaxInt64 {
			break // truncated frame header: keep the prefix
		}
		// Read through a bounded reader: a header may claim more bytes
		// than the stream holds, and only the bytes present are allocated.
		payload, err := io.ReadAll(io.LimitReader(br, int64(size)))
		if err != nil {
			return nil, fmt.Errorf("replay: read record: %w", err)
		}
		if uint64(len(payload)) < size {
			break // truncated payload: keep the prefix
		}
		if tag != recBegin && !sawBegin {
			return nil, fmt.Errorf("replay: record tag %d before the begin record", tag)
		}
		if sawEnd {
			return nil, fmt.Errorf("replay: record tag %d after the end record", tag)
		}
		rd := enc.NewReader(payload)
		switch tag {
		case recBegin:
			if sawBegin {
				return nil, errors.New("replay: second begin record")
			}
			rec.Sync = rd.Bool()
			rec.HasPlan = rd.Bool()
			rec.Corrupts = rd.Bool()
			sawBegin = true
			err = rd.Close()
		case recStep:
			if rec.Sync {
				return nil, errors.New("replay: step record in a synchronous recording")
			}
			if last, err = sr.check(payload, rec, last, sdec, fdec); err == nil {
				rec.steps = append(rec.steps, payload)
			}
		case recSnap:
			var snap *engine.Snapshot
			if snap, err = engine.UnmarshalSnapshot(payload, m, p); err == nil {
				rec.snaps = append(rec.snaps, snap)
			}
		case recEnd:
			rec.FinalStep = int(rd.Varint())
			rec.Fixpoint = rd.Bool()
			sawEnd = true
			err = rd.Close()
		default:
			return nil, fmt.Errorf("replay: unknown record tag %d", tag)
		}
		if err != nil {
			return nil, fmt.Errorf("replay: decode record tag %d: %w", tag, err)
		}
	}
	if !sawBegin {
		return nil, fmt.Errorf("replay: recording has no begin record")
	}
	return rec, nil
}
