package core

import (
	"math"
	"testing"
	"testing/quick"

	"slacksim/internal/event"
)

func TestSchemeStrings(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeCC:   "CC",
		SchemeQ10:  "Q10",
		SchemeL10:  "L10",
		SchemeS9:   "S9",
		SchemeS9x:  "S9*",
		SchemeS100: "S100",
		SchemeSU:   "SU",
	} {
		if s.String() != want {
			t.Errorf("%v != %s", s, want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"CC": SchemeCC, "cc": SchemeCC,
		"Q10": SchemeQ10, "q10": SchemeQ10,
		"L10": SchemeL10,
		"S9":  SchemeS9, "s9*": SchemeS9x,
		"S100": SchemeS100,
		"SU":   SchemeSU, "su": SchemeSU,
		" S42 ": {Kind: Bounded, Window: 42},
	} {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	for _, bad := range []string{"", "X9", "Q", "Q0", "L-1", "S9**", "Q10*", "carrots"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
		}
	}
}

func TestConservativeClassification(t *testing.T) {
	for s, want := range map[Scheme]bool{
		SchemeCC: true, SchemeQ10: true, SchemeL10: true, SchemeS9x: true,
		SchemeS9: false, SchemeS100: false, SchemeSU: false,
	} {
		if s.Conservative() != want {
			t.Errorf("%v conservative = %v", s, !want)
		}
	}
}

func TestMaxLocalRules(t *testing.T) {
	if got := SchemeCC.maxLocal(7); got != 8 {
		t.Errorf("CC window = %d", got)
	}
	// Quantum: barrier at the next multiple.
	if got := SchemeQ10.maxLocal(0); got != 10 {
		t.Errorf("Q10 at 0 = %d", got)
	}
	if got := SchemeQ10.maxLocal(9); got != 10 {
		t.Errorf("Q10 at 9 = %d", got)
	}
	if got := SchemeQ10.maxLocal(10); got != 20 {
		t.Errorf("Q10 at 10 = %d", got)
	}
	// Bounded: sliding window of Window cycles.
	if got := SchemeS9.maxLocal(100); got != 110 {
		t.Errorf("S9 at 100 = %d", got)
	}
	// Lookahead anchors at the global time (the sound anchor; see
	// Scheme.maxLocal).
	if got := SchemeL10.maxLocal(100); got != 110 {
		t.Errorf("L10 = %d", got)
	}
	if got := SchemeSU.maxLocal(5); got != math.MaxInt64 {
		t.Errorf("SU window = %d", got)
	}
}

// TestMaxLocalMonotone: every scheme's window edge is nondecreasing in the
// global time — the invariant that keeps cores from being pulled backward.
func TestMaxLocalMonotone(t *testing.T) {
	schemes := []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9, SchemeS9x, SchemeS100}
	f := func(g1raw, g2raw uint32) bool {
		g1, g2 := int64(g1raw%1_000_000), int64(g2raw%1_000_000)
		if g1 > g2 {
			g1, g2 = g2, g1
		}
		for _, s := range schemes {
			if s.maxLocal(g1) > s.maxLocal(g2) {
				return false
			}
			if s.maxLocal(g1) <= g1 {
				return false // window must always admit at least one cycle
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestVisibleBound tables the visibility half of the scheme policy across
// all seven kinds: what the manager may process once the global time is g.
func TestVisibleBound(t *testing.T) {
	const all = math.MaxInt64
	for _, c := range []struct {
		s       Scheme
		g       int64
		bound   int64
		barrier bool
	}{
		{SchemeCC, 0, 0, false},
		{SchemeCC, 57, 57, false},
		{SchemeL10, 57, 57, false},
		{SchemeS9x, 57, 57, false},
		// Quantum rounds down to the last boundary at or below g — also when
		// batched stepping jumped the global time across it (23 never equals
		// a multiple of 10), not yet below the first one, and exactly on one.
		{SchemeQ10, 23, 20, true},
		{SchemeQ10, 9, 0, true},
		{SchemeQ10, 30, 30, true},
		{Scheme{Kind: Quantum, Window: 7}, 20, 14, true},
		// Optimistic kinds: everything, on arrival.
		{SchemeS9, 57, all, false},
		{SchemeS100, 0, all, false},
		{SchemeSU, 57, all, false},
		{SchemeA1000, 57, all, false},
	} {
		bound, barrier := c.s.visibleBound(c.g)
		if bound != c.bound || barrier != c.barrier {
			t.Errorf("%v.visibleBound(%d) = %d, %v; want %d, %v", c.s, c.g, bound, barrier, c.bound, c.barrier)
		}
	}
}

// TestWindowTarget tables the window half: every core's max local time once
// the global time is g.
func TestWindowTarget(t *testing.T) {
	for _, c := range []struct {
		s          Scheme
		g, adapted int64
		want       int64
	}{
		{SchemeCC, 7, 0, 8},
		{SchemeQ10, 9, 0, 10},
		{SchemeQ10, 10, 0, 20},
		{SchemeL10, 100, 0, 110},
		{SchemeS9, 100, 0, 110},
		{SchemeS9x, 100, 0, 110},
		// Unbounded never moves, whatever the global time.
		{SchemeSU, 0, 0, math.MaxInt64},
		{SchemeSU, 1 << 40, 0, math.MaxInt64},
		// Adaptive follows its controller's window, clamped to the ceiling.
		{SchemeA1000, 100, 64, 165},
		{SchemeA1000, 100, 1000, 1101},
		{SchemeA1000, 100, 4000, 1101},
		// Overflow guard: a target past MaxInt64 saturates, never wraps.
		{SchemeS100, math.MaxInt64 - 50, 0, math.MaxInt64},
		{SchemeA1000, math.MaxInt64 - 10, 64, math.MaxInt64},
	} {
		if got := c.s.windowTarget(c.g, c.adapted); got != c.want {
			t.Errorf("%v.windowTarget(%d, %d) = %d, want %d", c.s, c.g, c.adapted, got, c.want)
		}
	}
}

// TestCorePacing tables the per-core half of the policy: the idle-core
// clamp, the batch horizon and the stalled-core fast-forward target.
func TestCorePacing(t *testing.T) {
	cons := corePacing{conservative: true, critical: 10}
	opt := corePacing{conservative: false, critical: 10}
	at := func(k event.Kind, t int64) event.Event { return event.Event{Kind: k, Time: t} }
	const none = math.MaxInt64

	// limit: only an inactive core is clamped, and only below its edge.
	for _, c := range []struct {
		p       corePacing
		edge, g int64
		active  bool
		want    int64
	}{
		{opt, none, 100, true, none},
		{opt, none, 100, false, 110},
		{cons, 105, 100, false, 105},
		{cons, 200, 100, false, 110},
		{cons, 200, 100, true, 200},
	} {
		if got := c.p.limit(c.edge, c.g, c.active); got != c.want {
			t.Errorf("limit(%d, %d, %v) conservative=%v = %d, want %d", c.edge, c.g, c.active, c.p.conservative, got, c.want)
		}
	}

	// batchEnd.
	for _, c := range []struct {
		name            string
		p               corePacing
		local, limit, g int64
		inbox           []event.Event
		want            int64
	}{
		{"conservative cap at g + critical", cons, 100, 500, 100, nil, 110},
		{"window edge below the cap", cons, 100, 105, 100, nil, 105},
		{"optimistic cap at optimisticBatch", opt, 100, none, 0, nil, 100 + optimisticBatch},
		{"optimistic edge below the cap", opt, 100, 150, 0, nil, 150},
		{"inbox event bounds the horizon", cons, 100, 500, 100, []event.Event{at(event.KFill, 104), at(event.KInv, 107)}, 104},
		{"invalidations bound it too", opt, 100, none, 0, []event.Event{at(event.KInv, 130)}, 130},
		{"CC: one cycle, inbox not consulted", cons, 100, 101, 100, []event.Event{at(event.KFill, 101)}, 101},
		{"never less than one cycle", cons, 100, 500, 80, nil, 101},
	} {
		if got := c.p.batchEnd(c.local, c.limit, c.g, c.inbox); got != c.want {
			t.Errorf("batchEnd %s: got %d, want %d", c.name, got, c.want)
		}
	}

	// skipTarget.
	for _, c := range []struct {
		name               string
		p                  corePacing
		limit, g, nextWork int64
		inbox              []event.Event
		active, blocked    bool
		want               int64
		freeze             bool
	}{
		{"scheduled completion", cons, 500, 100, 104, nil, true, false, 104, false},
		{"earlier inbox event wins", cons, 500, 100, 108, []event.Event{at(event.KFill, 103)}, true, false, 103, false},
		{"conservative cap at g + critical - 1", cons, 500, 100, 300, nil, true, false, 109, false},
		{"capped at the limit", opt, 120, 100, 300, nil, true, false, 120, false},
		{"conservative, no work: slide to the edge", cons, 105, 100, none, nil, true, false, 105, false},
		{"conservative but kernel-blocked: freeze", cons, 105, 100, none, nil, true, true, 0, true},
		{"optimistic, no work: freeze", opt, 200, 100, none, nil, true, false, 0, true},
		{"idle core follows the edge", opt, 110, 100, none, nil, false, false, 110, false},
		{"conservative skip honours an invalidation", cons, 500, 100, none, []event.Event{at(event.KInv, 106)}, true, false, 106, false},
		{"optimistic skip ignores invalidations", opt, 200, 100, none, []event.Event{at(event.KInv, 106), at(event.KDowngrade, 107)}, true, false, 0, true},
		{"optimistic skip still honours a fill", opt, 200, 100, none, []event.Event{at(event.KInv, 106), at(event.KFill, 150)}, true, false, 150, false},
	} {
		got, freeze := c.p.skipTarget(c.limit, c.g, c.nextWork, c.inbox, c.active, c.blocked)
		if got != c.want || freeze != c.freeze {
			t.Errorf("skipTarget %s: got %d, %v; want %d, %v", c.name, got, freeze, c.want, c.freeze)
		}
	}
}

func TestSchemeValidate(t *testing.T) {
	bad := []Scheme{
		{Kind: Quantum, Window: 0},
		{Kind: Lookahead, Window: -1},
		{Kind: Bounded, Window: -1},
		{Kind: SchemeKind(99)},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("%+v validated", s)
		}
	}
	good := []Scheme{SchemeCC, SchemeSU, {Kind: Bounded, Window: 0}, {Kind: Quantum, Window: 1}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v rejected: %v", s, err)
		}
	}
}

// TestEvHeapOrdering: the GQ pops in (Time, Core, Seq) order for arbitrary
// push sequences.
func TestEvHeapOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		var h evHeap
		for i, r := range raw {
			h.Push(event.Event{
				Time: int64(r % 64),
				Core: int32(r / 64 % 8),
				Seq:  int64(i),
			})
		}
		var prev *event.Event
		for h.Len() > 0 {
			ev := h.Pop()
			if prev != nil && event.Less(&ev, prev) {
				return false
			}
			cp := ev
			prev = &cp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEvHeapPeek(t *testing.T) {
	var h evHeap
	if h.Peek() != nil {
		t.Fatal("peek on empty heap")
	}
	h.Push(event.Event{Time: 5})
	h.Push(event.Event{Time: 2})
	if h.Peek().Time != 2 {
		t.Fatalf("peek = %d", h.Peek().Time)
	}
}
