package plan

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sort"

	"panda/internal/bitset"
	"panda/internal/flow"
	"panda/internal/hypergraph"
	"panda/internal/query"
	"panda/internal/widths"
)

// Plan serialization: a committed Plan is a closed value — bitsets, exact
// rationals, proof steps, tree decompositions — so it can outlive the
// process that paid its LP solves. A plan has one wire format, the
// panda-plan-cache snapshot (persist.go): EncodePlan writes a snapshot of
// one entry, and DecodePlan reads one through the reader LoadCache uses.
// An entry's payload is digested byte-for-byte: decoding rejects a payload
// whose SHA-256 disagrees with the recorded digest (ErrCodecDigest) or a
// snapshot whose format version is not this package's FormatVersion
// (ErrCodecVersion), and re-validates the decoded plan's internal indices so
// a corrupted-but-consistent file can never panic the execution engine.
// Encoding is deterministic (vector coordinates are sorted), so encoding the
// same plan twice yields identical bytes — the property the digest, the
// cache snapshot diffing and the round-trip tests all rely on.
//
// Exact rationals travel as big.Rat.RatString ("p/q" or "p"); variable sets
// travel as their bitmask. Nothing is lost: a decoded plan executes
// byte-identically to the freshly prepared one.
//
// Bound and width are redundant on the wire; decode re-prices them. Each is
// the certificate priced at the plan's constraints (price.go), so Decode
// recomputes both and refuses a plan whose stored value differs, naming the
// field; the codec keeps writing them so that plan bytes stay what they
// were.

// FormatVersion is the wire-format version stamped into every encoded plan
// and cache snapshot. Bump it on any incompatible change to the payload
// shape; decoders reject other versions with ErrCodecVersion rather than
// guessing.
const FormatVersion = 1

const cacheFormat = "panda-plan-cache"

// Codec sentinels: callers dispatch with errors.Is. Both mean "this payload
// is not trustworthy as written", never "the plan inside is semantically
// wrong" — semantic validation has its own plain errors.
var (
	// ErrCodecVersion reports an envelope whose format version is not
	// FormatVersion.
	ErrCodecVersion = errors.New("plan: unsupported plan format version")
	// ErrCodecDigest reports a payload whose SHA-256 digest disagrees with
	// the envelope's recorded digest.
	ErrCodecDigest = errors.New("plan: plan payload digest mismatch")
)

// ---- Wire shapes ----

type wireAtom struct {
	Name string `json:"name"`
	Vars uint32 `json:"vars"`
	Args []int  `json:"args,omitempty"`
}

type wireCon struct {
	X     uint32 `json:"x"`
	Y     uint32 `json:"y"`
	N     int64  `json:"n,omitempty"`
	LogN  string `json:"log_n"`
	Guard int    `json:"guard"`
}

type wireTD struct {
	Bags   []uint32 `json:"bags"`
	Parent []int    `json:"parent"`
}

// wireCoord is one sorted coordinate of a flow.Vec.
type wireCoord struct {
	X uint32 `json:"x"`
	Y uint32 `json:"y"`
	W string `json:"w"`
}

type wireStep struct {
	Kind int    `json:"kind"`
	W    string `json:"w"`
	A    uint32 `json:"a"`
	B    uint32 `json:"b"`
}

type wireRule struct {
	Targets []uint32    `json:"targets"`
	Trivial bool        `json:"trivial,omitempty"`
	Bound   string      `json:"bound"`
	Lambda  []wireCoord `json:"lambda,omitempty"`
	Delta   []wireCoord `json:"delta,omitempty"`
	Seq     []wireStep  `json:"seq,omitempty"`
}

type wirePlan struct {
	Mode         int        `json:"mode"`
	Key          string     `json:"key,omitempty"`
	NumVars      int        `json:"num_vars"`
	VarNames     []string   `json:"var_names,omitempty"`
	Atoms        []wireAtom `json:"atoms"`
	Free         uint32     `json:"free"`
	Cons         []wireCon  `json:"cons,omitempty"`
	Bags         []uint32   `json:"bags,omitempty"`
	TDs          []wireTD   `json:"tds,omitempty"`
	TDBags       [][]int    `json:"td_bags,omitempty"`
	Chosen       int        `json:"chosen"`
	Transversals [][]int    `json:"transversals,omitempty"`
	Rules        []wireRule `json:"rules"`
	Width        string     `json:"width"`
}

// ---- Rat / set / vec helpers ----

func ratOut(r *big.Rat) string {
	if r == nil {
		return ""
	}
	return r.RatString()
}

// ratOne and ratHalf are what decoding hands back for "1" and "1/2", and what
// a freshly prepared rule holds for them (shareRat in newPreparedRule), the
// values that make up most of a plan's rationals: an LP vertex over small
// hypergraphs is mostly 1s and 1/2s (2,903 of the 3,688 rationals in the 124
// plans of the four serve shapes over 80-row relations and 40 inserts; every
// other text is a log-size and occurs a handful of times). The plans a
// process holds share these two values rather than a copy per occurrence.
// They are never written; nothing may write to a plan's rationals anyway,
// since a cache hit's rebound plan shares them with the cached one
// (rebind.go).
var ratOne, ratHalf = big.NewRat(1, 1), big.NewRat(1, 2)

// shareRat is ratIn for a rational already in hand: ratOne or ratHalf in
// place of a value equal to it, r otherwise. It reads the numerator and
// denominator in place, where big.Rat.Cmp would allocate.
func shareRat(r *big.Rat) *big.Rat {
	if n := r.Num(); n.IsInt64() && n.Int64() == 1 {
		if r.IsInt() {
			return ratOne
		}
		if d := r.Denom(); d.IsInt64() && d.Int64() == 2 {
			return ratHalf
		}
	}
	return r
}

// ratIn parses a wire rational; ok is false when s is not one. Only then
// does the caller name the field (notRational): a decode formats no field
// name for a well-formed plan.
func ratIn(s string) (r *big.Rat, ok bool) {
	switch s {
	case "1":
		return ratOne, true
	case "1/2":
		return ratHalf, true
	}
	return new(big.Rat).SetString(s)
}

func notRational(field, s string) error {
	return fmt.Errorf("plan: decode: %s is not a rational: %q", field, s)
}

func setsOut(sets []bitset.Set) []uint32 {
	out := make([]uint32, len(sets))
	for i, s := range sets {
		out[i] = uint32(s)
	}
	return out
}

func setsIn(masks []uint32) []bitset.Set {
	out := make([]bitset.Set, len(masks))
	for i, m := range masks {
		out[i] = bitset.Set(m)
	}
	return out
}

// vecOut flattens a flow.Vec into coordinates sorted by (X, Y) so the
// encoding is deterministic.
func vecOut(v flow.Vec) ([]wireCoord, error) {
	if v == nil {
		return nil, nil
	}
	out := make([]wireCoord, 0, len(v))
	for p, w := range v {
		if w == nil {
			return nil, fmt.Errorf("plan: encode: vector coordinate %v has a nil weight", p)
		}
		out = append(out, wireCoord{X: uint32(p.X), Y: uint32(p.Y), W: w.RatString()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out, nil
}

// vecIn reads the vector rules[idx].name.
func vecIn(coords []wireCoord, idx int, name string) (flow.Vec, error) {
	if coords == nil {
		return nil, nil
	}
	v := flow.NewVec()
	for i, c := range coords {
		w, ok := ratIn(c.W)
		if !ok {
			return nil, notRational(fmt.Sprintf("rules[%d].%s[%d]", idx, name, i), c.W)
		}
		p := flow.Pair{X: bitset.Set(c.X), Y: bitset.Set(c.Y)}
		if _, dup := v[p]; dup {
			return nil, fmt.Errorf("plan: decode: duplicate rules[%d].%s coordinate %v", idx, name, p)
		}
		v[p] = w
	}
	return v, nil
}

func ruleOut(pr *PreparedRule) (wireRule, error) {
	if pr == nil {
		return wireRule{}, errors.New("plan: encode: nil rule")
	}
	lam, err := vecOut(pr.Lambda)
	if err != nil {
		return wireRule{}, err
	}
	del, err := vecOut(pr.Delta)
	if err != nil {
		return wireRule{}, err
	}
	wr := wireRule{
		Targets: setsOut(pr.Targets),
		Trivial: pr.Trivial,
		Bound:   ratOut(pr.Bound),
		Lambda:  lam,
		Delta:   del,
	}
	for _, s := range pr.Seq {
		wr.Seq = append(wr.Seq, wireStep{Kind: int(s.Kind), W: ratOut(s.W), A: uint32(s.A), B: uint32(s.B)})
	}
	return wr, nil
}

// ruleIn reads rule idx's certificate; validateDecodedRule prices it.
func ruleIn(wr wireRule, idx int) (*PreparedRule, error) {
	pr := &PreparedRule{Targets: setsIn(wr.Targets), Trivial: wr.Trivial}
	var err error
	if pr.Lambda, err = vecIn(wr.Lambda, idx, "lambda"); err != nil {
		return nil, err
	}
	if pr.Delta, err = vecIn(wr.Delta, idx, "delta"); err != nil {
		return nil, err
	}
	for i, s := range wr.Seq {
		if s.Kind < int(flow.Submodularity) || s.Kind > int(flow.Decomposition) {
			return nil, fmt.Errorf("plan: decode: rules[%d].seq[%d] has unknown step kind %d", idx, i, s.Kind)
		}
		w, ok := ratIn(s.W)
		if !ok {
			return nil, notRational(fmt.Sprintf("rules[%d].seq[%d].w", idx, i), s.W)
		}
		pr.Seq = append(pr.Seq, flow.Step{Kind: flow.StepKind(s.Kind), W: w, A: bitset.Set(s.A), B: bitset.Set(s.B)})
	}
	return pr, nil
}

// ---- Plan payload ----

func planOut(p *Plan) (*wirePlan, error) {
	if p == nil {
		return nil, errors.New("plan: encode: nil plan")
	}
	wp := &wirePlan{
		Mode:         int(p.Mode),
		Key:          p.Key,
		NumVars:      p.Schema.NumVars,
		VarNames:     p.Schema.VarNames,
		Free:         uint32(p.Free),
		Bags:         setsOut(p.Bags),
		TDBags:       p.TDBags,
		Chosen:       p.Chosen,
		Transversals: p.Transversals,
		Width:        ratOut(p.Width),
	}
	for _, a := range p.Schema.Atoms {
		wp.Atoms = append(wp.Atoms, wireAtom{Name: a.Name, Vars: uint32(a.Vars), Args: a.Args})
	}
	for _, c := range p.Cons {
		if c.LogN == nil {
			return nil, fmt.Errorf("plan: encode: constraint on %v has a nil LogN", c.Y)
		}
		wp.Cons = append(wp.Cons, wireCon{X: uint32(c.X), Y: uint32(c.Y), N: c.N, LogN: c.LogN.RatString(), Guard: c.Guard})
	}
	for _, td := range p.TDs {
		wp.TDs = append(wp.TDs, wireTD{Bags: setsOut(td.Bags), Parent: td.Parent})
	}
	for _, r := range p.Rules {
		wr, err := ruleOut(r)
		if err != nil {
			return nil, err
		}
		wp.Rules = append(wp.Rules, wr)
	}
	return wp, nil
}

func planIn(wp *wirePlan) (*Plan, error) {
	p := &Plan{
		Mode: Mode(wp.Mode),
		Key:  wp.Key,
		Schema: query.Schema{
			NumVars:  wp.NumVars,
			VarNames: wp.VarNames,
		},
		Free:         bitset.Set(wp.Free),
		Bags:         setsIn(wp.Bags),
		TDBags:       wp.TDBags,
		Chosen:       wp.Chosen,
		Transversals: wp.Transversals,
	}
	for _, a := range wp.Atoms {
		p.Schema.Atoms = append(p.Schema.Atoms, query.Atom{Name: a.Name, Vars: bitset.Set(a.Vars), Args: a.Args})
	}
	for i, c := range wp.Cons {
		logN, ok := ratIn(c.LogN)
		if !ok {
			return nil, notRational(fmt.Sprintf("cons[%d].log_n", i), c.LogN)
		}
		p.Cons = append(p.Cons, query.DegreeConstraint{
			X: bitset.Set(c.X), Y: bitset.Set(c.Y), N: c.N, LogN: logN, Guard: c.Guard,
		})
	}
	for _, td := range wp.TDs {
		p.TDs = append(p.TDs, &hypergraph.Decomposition{Bags: setsIn(td.Bags), Parent: td.Parent})
	}
	for i, wr := range wp.Rules {
		r, err := ruleIn(wr, i)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	if err := validateDecoded(p, wp); err != nil {
		return nil, err
	}
	return p, nil
}

// validateDecoded re-checks every internal invariant the executor assumes,
// so a decoded plan is exactly as trustworthy as a freshly prepared one.
// The digest catches accidental corruption; this catches a well-formed file
// describing an inconsistent plan (it is a checksum, not a proof). Each tree
// decomposition must be one over the plan's hypergraph, a ModeSubw plan's
// transversals the minimal transversals of its decompositions' bags, and each
// rule a proof of the inequality its structure needs. What the wire stores
// beside the certificate — every rule's bound and the width — decode prices
// again (priceRule, priceWidth) and compares with wp's.
func validateDecoded(p *Plan, wp *wirePlan) error {
	switch p.Mode {
	case ModeRule, ModeFull, ModeFhtw, ModeSubw:
	default:
		return fmt.Errorf("plan: decode: mode %d is not a committed plan mode", int(p.Mode))
	}
	if err := validate(&p.Schema, []bitset.Set{p.Free}, p.Cons); err != nil {
		return fmt.Errorf("plan: decode: %w", err)
	}
	full := bitset.Full(p.Schema.NumVars)
	seen := make(map[bitset.Set]bool, len(p.Bags))
	for _, b := range p.Bags {
		if !b.SubsetOf(full) {
			return fmt.Errorf("plan: decode: bag %v outside the universe [%d]", b, p.Schema.NumVars)
		}
		if seen[b] {
			return fmt.Errorf("plan: decode: bag %v appears twice in the bag universe", b)
		}
		seen[b] = true
	}
	if len(p.TDBags) != len(p.TDs) {
		return fmt.Errorf("plan: decode: %d bag-index rows for %d decompositions", len(p.TDBags), len(p.TDs))
	}
	h := p.Schema.Hypergraph()
	for ti, td := range p.TDs {
		if len(p.TDBags[ti]) != len(td.Bags) {
			return fmt.Errorf("plan: decode: decomposition %d has inconsistent shapes", ti)
		}
		if err := td.Validate(h); err != nil {
			return fmt.Errorf("plan: decode: decomposition %d: %w", ti, err)
		}
		for bi, idx := range p.TDBags[ti] {
			if idx < 0 || idx >= len(p.Bags) {
				return fmt.Errorf("plan: decode: decomposition %d bag index %d out of range", ti, idx)
			}
			if p.Bags[idx] != td.Bags[bi] {
				return fmt.Errorf("plan: decode: decomposition %d bag %d disagrees with the bag universe", ti, bi)
			}
		}
	}
	if p.Chosen < -1 || p.Chosen >= len(p.TDs) {
		return fmt.Errorf("plan: decode: chosen decomposition %d out of range", p.Chosen)
	}
	var trs [][]int
	if p.Mode == ModeSubw {
		var err error
		if trs, err = hypergraph.MinimalTransversals(context.Background(), p.TDBags); err != nil {
			return fmt.Errorf("plan: decode: %w", err)
		}
	} else if len(p.Transversals) > 0 {
		return fmt.Errorf("plan: decode: %v plan carries transversals", p.Mode)
	}
	// Rule i answers one structure of the plan — the full variable set
	// (ModeFull), bag i of the chosen decomposition (ModeFhtw), the bags of
	// transversal i (ModeSubw) — and a rule that proves another structure's
	// inequality replays fine, yet loses that structure's tuples (Lemma 7.12
	// needs every minimal transversal's rule). A ModeRule plan's one rule
	// answers its own targets.
	n, want := 1, func(int) []bitset.Set { return nil }
	switch p.Mode {
	case ModeFull:
		want = func(int) []bitset.Set { return []bitset.Set{full} }
	case ModeFhtw:
		if p.Chosen < 0 {
			return errors.New("plan: decode: ModeFhtw plan has no chosen decomposition")
		}
		bags := p.TDs[p.Chosen].Bags
		n, want = len(bags), func(i int) []bitset.Set { return bags[i : i+1] }
	case ModeSubw:
		n, want = len(trs), func(i int) []bitset.Set { return widths.Targets(p.Bags, trs[i]) }
	}
	// The rule count goes first: it is short to report even where the
	// transversals run to thousands.
	if len(p.Rules) != n {
		return fmt.Errorf("plan: decode: %v plan carries %d rules, want %d", p.Mode, len(p.Rules), n)
	}
	if !slices.EqualFunc(p.Transversals, trs, slices.Equal) {
		return fmt.Errorf("plan: decode: transversals %v, want the minimal transversals %v", p.Transversals, trs)
	}
	for i, r := range p.Rules {
		if w := want(i); w != nil && !slices.Equal(r.Targets, w) {
			return fmt.Errorf("plan: decode: rules[%d] targets %v, want %v", i, r.Targets, w)
		}
		if err := validateDecodedRule(r, i, full, p.Cons); err != nil {
			return fmt.Errorf("plan: decode: %w", err)
		}
		if err := checkPrice(wp.Rules[i].Bound, r.Bound, func() string { return fmt.Sprintf("rules[%d].bound", i) }); err != nil {
			return err
		}
	}
	p.priceWidth()
	return checkPrice(wp.Width, p.Width, func() string { return "width" })
}

// checkPrice compares the stored text of a priced field with the price decode
// computed for it. field names it, and is formatted only on failure.
func checkPrice(stored string, priced *big.Rat, field func() string) error {
	r, ok := ratIn(stored)
	if !ok {
		return notRational(field(), stored)
	}
	if r.Cmp(priced) != 0 {
		return fmt.Errorf("plan: decode: %s is %s, but the certificate prices it at %s", field(), stored, priced.RatString())
	}
	return nil
}

// validateDecodedRule checks decoded rule i, prices it at cons and fills in
// its Zeroed masks. They come from replaying the proof sequence from δ, so a
// rule whose steps are malformed, overdraw δ or end short of λ — anything
// that is not a proof of its own inequality — is refused here, naming the
// step, rather than failing mid-execution.
func validateDecodedRule(pr *PreparedRule, i int, full bitset.Set, cons []query.DegreeConstraint) error {
	if len(pr.Targets) == 0 {
		return fmt.Errorf("rules[%d]: no targets", i)
	}
	for _, t := range pr.Targets {
		if !t.SubsetOf(full) {
			return fmt.Errorf("rules[%d]: target %v outside the universe", i, t)
		}
	}
	if err := priceRule(pr, cons); err != nil {
		return fmt.Errorf("rules[%d]: %w", i, err)
	}
	if pr.Trivial {
		return nil
	}
	if len(pr.Lambda) == 0 || len(pr.Delta) == 0 {
		return fmt.Errorf("rules[%d]: non-trivial rule with empty witness vectors", i)
	}
	for j, s := range pr.Seq {
		if !s.A.SubsetOf(full) || !s.B.SubsetOf(full) {
			return fmt.Errorf("rules[%d].seq[%d]: proof step outside the universe", i, j)
		}
	}
	zeroed, err := flow.ValidateProof(pr.Lambda, pr.Delta, pr.Seq)
	var se *flow.StepError
	switch {
	case errors.As(err, &se):
		return fmt.Errorf("rules[%d].seq[%d]: %w", i, se.Index, se.Err)
	case err != nil:
		return fmt.Errorf("rules[%d].seq: %w", i, err)
	}
	pr.Zeroed = zeroed
	return nil
}

// ---- Plan I/O ----

func digestOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// EncodePlan writes p to w as a panda-plan-cache snapshot of one entry, keyed
// by p.Key with no LP cost. The encoding is deterministic: the same plan
// always yields the same bytes.
func EncodePlan(w io.Writer, p *Plan) error {
	return writeCache(w, []*entry{{key: p.Key, plan: p}})
}

// DecodePlan reads a snapshot of exactly one entry from r, verifying the
// format version (ErrCodecVersion on mismatch), the payload digest
// (ErrCodecDigest) and every internal invariant the executor assumes. It does
// not check that the entry's key names the plan's shape: that is a rule for
// installing a plan into a cache (LoadCache), and a plan handed out in a
// caller's spelling carries the canonical Key without the canonical
// spelling. The returned plan is immutable and safe for concurrent Execute
// calls, exactly like the plan Prepare returned to the encoder.
func DecodePlan(r io.Reader) (*Plan, error) {
	env, err := readCache(r)
	if err != nil {
		return nil, err
	}
	if env.Version != FormatVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrCodecVersion, env.Version, FormatVersion)
	}
	if len(env.Entries) != 1 {
		return nil, fmt.Errorf("plan: decode: snapshot holds %d entries, want 1", len(env.Entries))
	}
	ent := &env.Entries[0]
	if digestOf(ent.Plan) != ent.Digest {
		return nil, ErrCodecDigest
	}
	return ent.decode()
}
