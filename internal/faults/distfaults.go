package faults

import (
	"context"
	"errors"
	"sync"
	"time"

	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/zone"
)

// Distribution-layer faults: where the netsim rules attack query traffic,
// these wrap dist.Source so a chaos scenario can hand the refresher a
// population of misbehaving zone mirrors — stale mirrors replaying old
// serials, forked mirrors publishing an alternative history, truncated
// delta chains, mirrors that flap, and a mid-rollover KSK compromise. All
// wrappers share one DistFaults counter block and the scenario's virtual
// clock, so a soak run can report exactly what was injected next to what
// the refresher survived.

// DistStats counts injected distribution faults by effect.
type DistStats struct {
	RollbacksServed  int64 // stale bundles replayed by rollback mirrors
	FreezesServed    int64 // "you are current" lies from rollback mirrors
	ForksServed      int64 // forked-history bundles served
	ChainTruncations int64 // delta chains served with links removed
	Flaps            int64 // fetches refused by flapping sources
	StolenKeyBundles int64 // bundles signed with the compromised KSK
}

// DistFaults builds fault-wrapped bundle sources and aggregates their
// injection counters.
type DistFaults struct {
	mu    sync.Mutex
	clock func() time.Time
	stats DistStats
}

// NewDistFaults creates the wrapper factory on the scenario clock (nil
// means real time).
func NewDistFaults(clock func() time.Time) *DistFaults {
	if clock == nil {
		clock = time.Now
	}
	return &DistFaults{clock: clock}
}

// Stats returns a snapshot of the injection counters.
func (d *DistFaults) Stats() DistStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Collect implements obs.Collector.
func (d *DistFaults) Collect(reg *obs.Registry) {
	obs.SetCountersFromStruct(reg, "rootless_dist_faults", "injected distribution faults", nil, d.Stats())
}

func (d *DistFaults) count(f func(*DistStats)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

// errNoDelta pushes the refresher to the full-bundle path for sources
// that cannot (or will not) serve a delta chain.
var errNoDelta = errors.New("faults: no delta chain available")

// deltaChain forwards to the inner source's delta support, if any.
func deltaChain(ctx context.Context, inner dist.Source, from uint32) ([]*dist.DeltaBundle, error) {
	if ds, ok := inner.(dist.DeltaSource); ok {
		return ds.FetchDeltaChain(ctx, from)
	}
	return nil, errNoDelta
}

// ---- rollback mirror ----

// rollbackMirror freezes on whatever snapshot it holds when the window
// opens and serves it for the window's duration. A client that already
// moved past the snapshot sees a serial rollback; a client sitting exactly
// at the snapshot's serial is told "you are current" forever (the freeze
// attack) — both of which the refresher must survive.
type rollbackMirror struct {
	d      *DistFaults
	inner  dist.Source
	window Window
	mu     sync.Mutex
	frozen *dist.Bundle
}

// RollbackMirror wraps a source as a mirror stuck on an old snapshot
// during the window.
func (d *DistFaults) RollbackMirror(inner dist.Source, w Window) dist.Source {
	return &rollbackMirror{d: d, inner: inner, window: w}
}

// freeze captures the inner source's current bundle on first access inside
// the window and returns it for every access thereafter.
func (m *rollbackMirror) freeze(ctx context.Context) (*dist.Bundle, error) {
	m.mu.Lock()
	frozen := m.frozen
	m.mu.Unlock()
	if frozen != nil {
		return frozen, nil
	}
	b, err := m.inner.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.frozen == nil {
		m.frozen = b
	}
	frozen = m.frozen
	m.mu.Unlock()
	return frozen, nil
}

func (m *rollbackMirror) thaw() {
	m.mu.Lock()
	m.frozen = nil
	m.mu.Unlock()
}

func (m *rollbackMirror) Fetch(ctx context.Context) (*dist.Bundle, error) {
	if !m.window.contains(m.d.clock()) {
		m.thaw()
		return m.inner.Fetch(ctx)
	}
	b, err := m.freeze(ctx)
	if err != nil {
		return nil, err
	}
	m.d.count(func(s *DistStats) { s.RollbacksServed++ })
	return b, nil
}

func (m *rollbackMirror) FetchDeltaChain(ctx context.Context, from uint32) ([]*dist.DeltaBundle, error) {
	if !m.window.contains(m.d.clock()) {
		m.thaw()
		return deltaChain(ctx, m.inner, from)
	}
	b, err := m.freeze(ctx)
	if err != nil {
		return nil, err
	}
	if from == b.Serial {
		// The freeze lie: "you are already current".
		m.d.count(func(s *DistStats) { s.FreezesServed++ })
		return nil, nil
	}
	// A stale mirror has no deltas beyond its snapshot; the client falls
	// back to a full fetch and receives the old bundle.
	return nil, errNoDelta
}

// ---- forked-zone mirror ----

// forkMirror serves an alternative history: the real zone with extra
// records, re-signed under the fork operator's own key. The signature
// cannot verify against the publisher's anchors, so a refresher must
// reject every bundle and quarantine the source.
type forkMirror struct {
	d      *DistFaults
	inner  dist.Source
	signer *dnssec.Signer
	window Window
}

// ForkMirror wraps a source as a forked-history mirror signing with its
// own (unanchored) key during the window.
func (d *DistFaults) ForkMirror(inner dist.Source, signer *dnssec.Signer, w Window) dist.Source {
	return &forkMirror{d: d, inner: inner, signer: signer, window: w}
}

func (m *forkMirror) Fetch(ctx context.Context) (*dist.Bundle, error) {
	b, err := m.inner.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	now := m.d.clock()
	if !m.window.contains(now) {
		return b, nil
	}
	forked, err := forkZone(b, m.signer, now, 1000)
	if err != nil {
		return nil, err
	}
	m.d.count(func(s *DistStats) { s.ForksServed++ })
	return forked, nil
}

func (m *forkMirror) FetchDeltaChain(ctx context.Context, from uint32) ([]*dist.DeltaBundle, error) {
	if !m.window.contains(m.d.clock()) {
		return deltaChain(ctx, m.inner, from)
	}
	// A fork's chain anchors can never match the canonical history.
	return nil, errNoDelta
}

// forkZone decodes a bundle's zone, plants a record, bumps the serial
// ahead of the real history, and re-signs everything with the given
// signer.
func forkZone(b *dist.Bundle, signer *dnssec.Signer, now time.Time, serialJump uint32) (*dist.Bundle, error) {
	z, err := zone.Decompress(b.Compressed, dnswire.Root)
	if err != nil {
		return nil, err
	}
	soaRRs := z.Lookup(z.Origin, dnswire.TypeSOA)
	if len(soaRRs) != 1 {
		return nil, errors.New("faults: forked zone has no SOA")
	}
	soa := soaRRs[0].Data.(dnswire.SOA)
	soa.Serial += serialJump
	planted := dnswire.NewRR("forked.", 172800, dnswire.NS{Host: "ns.forked."})
	fz, err := z.Apply([]zone.Change{
		{Key: soaRRs[0].Key(), Old: soaRRs, New: []dnswire.RR{dnswire.NewRR(z.Origin, soaRRs[0].TTL, soa)}},
		{Key: planted.Key(), New: []dnswire.RR{planted}},
	})
	if err != nil {
		return nil, err
	}
	if err := signer.SignZone(fz, now); err != nil {
		return nil, err
	}
	return dist.MakeBundle(fz, signer)
}

// ---- delta-chain truncation ----

// chainTruncator removes the leading links of every delta chain it
// serves, so the chain no longer applies to the client's serial. Full
// bundles pass through untouched — the self-healing fallback path.
type chainTruncator struct {
	d      *DistFaults
	inner  dist.Source
	window Window
}

// TruncateChain wraps a source so its delta chains arrive with the first
// link missing during the window.
func (d *DistFaults) TruncateChain(inner dist.Source, w Window) dist.Source {
	return &chainTruncator{d: d, inner: inner, window: w}
}

func (m *chainTruncator) Fetch(ctx context.Context) (*dist.Bundle, error) {
	return m.inner.Fetch(ctx)
}

func (m *chainTruncator) FetchDeltaChain(ctx context.Context, from uint32) ([]*dist.DeltaBundle, error) {
	chain, err := deltaChain(ctx, m.inner, from)
	if err != nil || len(chain) == 0 || !m.window.contains(m.d.clock()) {
		return chain, err
	}
	m.d.count(func(s *DistStats) { s.ChainTruncations++ })
	return chain[1:], nil
}

// ---- flapping source ----

// flappingSource alternates between reachable and dead on a fixed period —
// the mirror with a broken load balancer that works every other refresh.
type flappingSource struct {
	d      *DistFaults
	inner  dist.Source
	period time.Duration
	window Window
}

// Flapping wraps a source that is down every other period during the
// window.
func (d *DistFaults) Flapping(inner dist.Source, period time.Duration, w Window) dist.Source {
	return &flappingSource{d: d, inner: inner, period: period, window: w}
}

func (m *flappingSource) down() bool {
	now := m.d.clock()
	if !m.window.contains(now) {
		return false
	}
	return (now.Unix()/int64(m.period/time.Second))%2 == 1
}

func (m *flappingSource) Fetch(ctx context.Context) (*dist.Bundle, error) {
	if m.down() {
		m.d.count(func(s *DistStats) { s.Flaps++ })
		return nil, errors.New("faults: source is flapping")
	}
	return m.inner.Fetch(ctx)
}

func (m *flappingSource) FetchDeltaChain(ctx context.Context, from uint32) ([]*dist.DeltaBundle, error) {
	if m.down() {
		m.d.count(func(s *DistStats) { s.Flaps++ })
		return nil, errors.New("faults: source is flapping")
	}
	return deltaChain(ctx, m.inner, from)
}

// ---- mid-rollover KSK compromise ----

// stolenKeyMirror models the attacker who obtained the outgoing KSK
// during a rollover: it serves the real zone with a planted record,
// re-signed with the stolen key. Until the publisher's revocation
// propagates, these bundles verify; afterwards every trust store must
// report ErrRevokedKey and refuse them.
type stolenKeyMirror struct {
	d      *DistFaults
	inner  dist.Source
	stolen *dnssec.Signer
	window Window
}

// StolenKey wraps a source as a mirror controlled by an attacker holding
// the compromised signer during the window.
func (d *DistFaults) StolenKey(inner dist.Source, stolen *dnssec.Signer, w Window) dist.Source {
	return &stolenKeyMirror{d: d, inner: inner, stolen: stolen, window: w}
}

func (m *stolenKeyMirror) Fetch(ctx context.Context) (*dist.Bundle, error) {
	b, err := m.inner.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	now := m.d.clock()
	if !m.window.contains(now) {
		return b, nil
	}
	forged, err := forkZone(b, m.stolen, now, 2000)
	if err != nil {
		return nil, err
	}
	m.d.count(func(s *DistStats) { s.StolenKeyBundles++ })
	return forged, nil
}

func (m *stolenKeyMirror) FetchDeltaChain(ctx context.Context, from uint32) ([]*dist.DeltaBundle, error) {
	if !m.window.contains(m.d.clock()) {
		return deltaChain(ctx, m.inner, from)
	}
	return nil, errNoDelta
}
