package replay

// codec_test.go pins the WRPLAY03 bytes: a hand-built step record streams
// to a committed hex literal and decodes back to the same decisions, and
// Load returns a recording or an error on hostile bytes, never panicking
// or allocating what a header merely claims.

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/enc"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// scriptedSchedule and scriptedPlan make one fixed decision each step.
type scriptedSchedule struct{ dec schedule.Decision }

func (s *scriptedSchedule) Name() string       { return "scripted" }
func (s *scriptedSchedule) Begin(n, links int) {}
func (s *scriptedSchedule) Step(_ int, _ schedule.View, dec *schedule.Decision) {
	dec.ActivateAll, dec.DeliverAll = s.dec.ActivateAll, s.dec.DeliverAll
	copy(dec.Activate, s.dec.Activate)
	copy(dec.Deliver, s.dec.Deliver)
}

type scriptedPlan struct {
	dec     fault.Decision
	healed  int64
	fates   []fault.Fate
	next    int
	rewrite string
}

func (p *scriptedPlan) Name() string                    { return "scripted" }
func (p *scriptedPlan) Begin(fault.Topology)            { p.next = 0 }
func (p *scriptedPlan) Settled() bool                   { return true }
func (p *scriptedPlan) Healed() int64                   { return p.healed }
func (p *scriptedPlan) Corrupt(int, int, string) string { return p.rewrite }
func (p *scriptedPlan) Step(_ int, _ fault.View, dec *fault.Decision) {
	copy(dec.Crash, p.dec.Crash)
	copy(dec.Recover, p.dec.Recover)
	copy(dec.Resend, p.dec.Resend)
}
func (p *scriptedPlan) Filter(int, int) fault.Fate {
	f := p.fates[p.next]
	p.next++
	return f
}

// recordingABI is the WRPLAY03 stream of TestRecordingABI's run: one step
// record between the begin and end records.
const recordingABI = "" +
	"5752504c41593033" + // magic "WRPLAY03"
	"01" + "03" + // begin record, 3 bytes
	"00" + "01" + "01" + // async, with a plan, which can corrupt
	"02" + "1d" + // step record, 29 bytes
	"05" + // step 5
	"00" + "03" + "05" + // not ActivateAll; 3 nodes: 0 and 2
	"00" + "06" + "020004000002" + // not DeliverAll; 6 links, zigzag counts 1 0 2 0 0 1
	"03" + "02" + // crash mask, 3 nodes: node 1
	"03" + "05" + "0102" + // recover mask, 3 nodes: 0 resumes, 2 resets
	"06" + "08" + // resend mask, 6 links: link 3
	"06" + // healed 3 (zigzag)
	"03" + // 3 fates:
	"01" + // drop,
	"00" + // deliver,
	"03" + "02" + "7839" + // corrupt, rewritten to "x9"
	"01" + // Settled verdict: true
	"04" + "02" + // end record, 2 bytes
	"0a" + "01" // final step 5 (zigzag), fixpoint

// TestRecordingABI: a hand-built step — activation mask, delivery counts,
// a crash, a resume and a reset recovery, a resend, a healed count, a drop and a corrupt fate
// with its rewrite, and a Settled verdict — streams to exactly the
// committed bytes; Load, Save and the players read them back unchanged.
func TestRecordingABI(t *testing.T) {
	const step = 5
	sched := schedule.Decision{
		Activate: []bool{true, false, true},
		Deliver:  []int32{1, 0, 2, 0, 0, 1},
	}
	plan := fault.Decision{
		Crash:   []bool{false, true, false},
		Recover: []fault.RecoverKind{fault.RecoverResume, fault.RecoverNone, fault.RecoverReset},
		Resend:  []bool{false, false, false, true, false, false},
	}
	fates := []fault.Fate{fault.FateDrop, fault.FateDeliver, fault.FateCorrupt}

	var streamed bytes.Buffer
	opts, r, err := New(engine.Options{
		Executor: engine.ExecutorAsync,
		Schedule: &scriptedSchedule{sched},
		Fault:    &scriptedPlan{dec: plan, healed: 3, fates: fates, rewrite: "x9"},
	}, 8, &streamed)
	if err != nil {
		t.Fatal(err)
	}
	// One step, in the engine's order.
	opts.Schedule.Step(step, nil, schedule.NewDecision(3, 6))
	opts.Fault.Step(step, nil, fault.NewDecision(3, 6))
	for link := range fates {
		if opts.Fault.Filter(step, link) == fault.FateCorrupt {
			opts.Fault.(fault.Corrupter).Corrupt(step, link, "12")
		}
	}
	opts.Fault.Settled()
	if err := r.Finish(&engine.Result{Rounds: step, Fixpoint: true}); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(recordingABI)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want) {
		t.Fatalf("streamed\n%x\nwant\n%x", streamed.Bytes(), want)
	}

	g := graph.Cycle(3)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())
	rec, err := Load(bytes.NewReader(want), m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, r.Recording()) {
		t.Fatal("loaded recording differs from the recorded one")
	}
	var saved bytes.Buffer
	if err := rec.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Fatalf("saved\n%x\nwant\n%x", saved.Bytes(), want)
	}

	sp, pp := newPlayers(rec, 0, nil)
	gotSched, gotPlan := schedule.NewDecision(3, 6), fault.NewDecision(3, 6)
	sp.Begin(3, 6)
	pp.Begin(nil)
	sp.Step(step, nil, gotSched)
	pp.Step(step, nil, gotPlan)
	if !reflect.DeepEqual(*gotSched, sched) {
		t.Errorf("schedule decision %+v, want %+v", *gotSched, sched)
	}
	if !reflect.DeepEqual(*gotPlan, plan) {
		t.Errorf("plan decision %+v, want %+v", *gotPlan, plan)
	}
	if h := pp.(fault.Healer).Healed(); h != 3 {
		t.Errorf("healed %d, want 3", h)
	}
	for link, want := range fates {
		if f := pp.Filter(step, link); f != want {
			t.Errorf("link %d fate %v, want %v", link, f, want)
		}
		if want == fault.FateCorrupt {
			if msg := pp.(fault.Corrupter).Corrupt(step, link, "12"); msg != "x9" {
				t.Errorf("link %d rewrite %q, want %q", link, msg, "x9")
			}
		}
	}
	if !pp.Settled() {
		t.Error("Settled verdict false, want true")
	}
}

// frame appends one record frame claiming size payload bytes.
func frame(b []byte, tag byte, size uint64, payload ...byte) []byte {
	b = append(b, tag)
	b = enc.Uvarint(b, size)
	return append(b, payload...)
}

// stepFrame appends a step record frame.
func stepFrame(b []byte, payload ...byte) []byte {
	return frame(b, recStep, uint64(len(payload)), payload...)
}

// begin starts a recording of an async plan run, whose plan can corrupt
// or not.
func begin(corrupts byte) []byte {
	return frame([]byte(replayMagic), recBegin, 3, 0, 1, corrupts)
}

// stepPayload is a step record of a plan run on a 16-node, 64-link graph,
// up to and including its fate count, in which no node recovers.
func stepPayload(t, fates uint64) []byte {
	return planPayload(t, []byte{16, 0, 0}, fates)
}

// planPayload is stepPayload with the given recover mask and kinds.
func planPayload(t uint64, recover []byte, fates uint64) []byte {
	b := enc.Uvarint(nil, t)
	b = append(b, 1, 1)     // ActivateAll, DeliverAll
	b = append(b, 16, 0, 0) // crash mask
	b = append(b, recover...)
	b = append(b, 64) // resend mask
	b = append(b, make([]byte, 8)...)
	b = append(b, 0) // healed
	return enc.Uvarint(b, fates)
}

// TestLoadHostileBytes: Load returns a recording or an error on corrupt
// and adversarial bytes, never panics and never allocates what a header
// merely claims.
func TestLoadHostileBytes(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr bool
	}{
		// A frame header claiming more bytes than follow is a truncated
		// tail: Load keeps the prefix.
		{"frame claims 1<<62 bytes", frame(begin(1), recSnap, 1<<62, 1, 2, 3), false},
		{"frame claims 1<<63 bytes", frame(begin(1), recSnap, 1<<63, 1, 2, 3), false},
		{"frame claims 1<<40 bytes", frame(begin(1), recStep, 1<<40, 1, 2, 3), false},

		{"bool-mask count 1<<63", stepFrame(begin(1), enc.Uvarint([]byte{1, 0}, 1<<63)...), true},
		{"bool-mask count 1<<64-1", stepFrame(begin(1), enc.Uvarint([]byte{1, 0}, 1<<64-1)...), true},
		{"bool mask past the bytes left", stepFrame(begin(1), 1, 0, 16, 0xff), true},
		{"delivery count 1<<63", stepFrame(begin(1), enc.Uvarint([]byte{1, 1, 0}, 1<<63)...), true},
		{"delivery count out of int32", stepFrame(begin(1),
			append(enc.Varint([]byte{1, 1, 0, 64}, 1<<40), make([]byte, 63)...)...), true},
		{"recover mask of 15 nodes", stepFrame(begin(1), planPayload(1, []byte{15, 0, 0}, 0)...), true},
		{"recover bit with kind RecoverNone", stepFrame(begin(1), planPayload(1, []byte{16, 1, 0, 0}, 0)...), true},
		{"unknown recover kind", stepFrame(begin(1), planPayload(1, []byte{16, 1, 0, 9}, 0)...), true},
		{"recover kinds past the bytes left", stepFrame(begin(1), 1, 1, 1, 16, 0, 0, 16, 0xff, 0xff, 1), true},
		{"fate count 1<<63", stepFrame(begin(1), stepPayload(1, 1<<63)...), true},
		{"unknown fate", stepFrame(begin(1), append(stepPayload(1, 1), 200)...), true},
		{"rewrite longer than the record", stepFrame(begin(1),
			enc.Uvarint(append(stepPayload(1, 1), byte(fault.FateCorrupt)), 1<<62)...), true},
		{"corrupt fate, plan cannot corrupt", stepFrame(begin(0),
			append(stepPayload(1, 1), byte(fault.FateCorrupt), 0)...), true},
		{"bytes after the verdict", stepFrame(begin(1), append(stepPayload(1, 0), 1, 1)...), true},
		{"step 0", stepFrame(begin(1), stepPayload(0, 0)...), true},
		{"steps out of order", stepFrame(stepFrame(begin(1), stepPayload(2, 0)...), stepPayload(2, 0)...), true},
		{"record after the end record", stepFrame(frame(begin(1), recEnd, 2, 2, 0), stepPayload(2, 0)...), true},
		{"step before the begin record", stepFrame([]byte(replayMagic), stepPayload(1, 0)...), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := Load(bytes.NewReader(tc.data), m, p)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Load error %v, want error: %v", err, tc.wantErr)
			}
			if err == nil && (len(rec.steps) != 0 || rec.FinalStep != 0) {
				t.Fatalf("kept %d steps, final step %d, of a truncated stream", len(rec.steps), rec.FinalStep)
			}
		})
	}
}

// TestLoadOldFormat: a recording in the previous format is refused by its
// magic, with an error that names its version and the one Load reads. Its
// Settled verdicts sit at the old probe steps and its recover kinds in the
// old layout, so reading on would misreplay it.
func TestLoadOldFormat(t *testing.T) {
	g := graph.Torus(4, 4)
	old := frame([]byte("WRPLAY02"), recBegin, 3, 0, 1, 0)
	_, err := Load(bytes.NewReader(old), algorithms.MaxConsensus(g.MaxDegree()), port.Canonical(g))
	if err == nil || !strings.Contains(err.Error(), "WRPLAY02") || !strings.Contains(err.Error(), replayMagic) {
		t.Fatalf("Load of a WRPLAY02 stream: err = %v, want one naming WRPLAY02 and %s", err, replayMagic)
	}
}

// FuzzLoad: for arbitrary bytes Load returns a recording or an error, and
// never panics; a loaded recording that is sealed and short enough also
// replays to a result or an error, never a panic. The committed corpus
// (testdata/fuzz/FuzzLoad) holds a short streamed hostile recording with
// snapshots, truncations of it, and the hostile headers of
// TestLoadHostileBytes.
func FuzzLoad(f *testing.F) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Load(bytes.NewReader(data), m, p)
		if err != nil || rec.FinalStep <= 0 || rec.FinalStep > 10_000 {
			return
		}
		rec.Replay(m, p, engine.Options{}, nil)
	})
}
