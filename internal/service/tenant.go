package service

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Per-tenant admission: a token-bucket rate limit on requests and an
// ε-budget ledger on report ingestion. The tenant is whoever the
// gateway says it is — `Authorization: Bearer <tenant>` — which is
// accounting, not authentication: the server is expected to sit behind
// a gateway that has already authenticated the caller, and what this
// layer adds is the per-caller throttle and the privacy ledger. Every
// accepted report spends ε of some user's privacy budget (the reason
// durability is a privacy property is the same reason ingestion volume
// is one), so the ledger debits count × ε per accepted batch and
// refuses the batch once the configured budget is spent.
//
// Requests without an Authorization header share the "anonymous"
// tenant, so an unconfigured deployment behaves like one big tenant.

// anonTenant is the tenant of requests carrying no bearer token.
const anonTenant = "anonymous"

// tenantLimits is the (global, per-tenant) admission configuration.
type tenantLimits struct {
	rate      float64 // requests/second refill; <= 0 disables rate limiting
	burst     float64 // bucket capacity; >= 1 when rate limiting is on
	epsBudget float64 // total ε a tenant may spend on reports; <= 0 disables
}

// tenantState is one tenant's bucket and ledger. The mutex covers the
// float fields; the struct is tiny and per-tenant, so contention is the
// tenant's own request concurrency, never cross-tenant.
type tenantState struct {
	name string

	mu             sync.Mutex
	tokens         float64
	lastRefill     time.Time
	epsSpent       float64
	requests       int64
	throttled      int64
	budgetRefusals int64
}

// tenantSnapshot is a point-in-time copy for /metrics and /v1/stats.
type tenantSnapshot struct {
	name           string
	requests       int64
	throttled      int64
	budgetRefusals int64
	epsSpent       float64
}

type tenantRegistry struct {
	limits tenantLimits
	m      sync.Map // tenant name -> *tenantState
}

// newTenantRegistry returns nil when nothing is configured — no
// admission middleware, no ledger, the pre-PR-7 behavior.
func newTenantRegistry(l tenantLimits) *tenantRegistry {
	if l.rate <= 0 && l.epsBudget <= 0 {
		return nil
	}
	if l.rate > 0 && l.burst < 1 {
		l.burst = 1
	}
	return &tenantRegistry{limits: l}
}

// tenantFrom extracts the tenant name from the request's bearer token.
func tenantFrom(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	if t, ok := strings.CutPrefix(auth, "Bearer "); ok {
		if t = strings.TrimSpace(t); t != "" {
			return t
		}
	}
	return anonTenant
}

func (tr *tenantRegistry) state(name string) *tenantState {
	v, ok := tr.m.Load(name)
	if !ok {
		v, _ = tr.m.LoadOrStore(name, &tenantState{
			name: name, tokens: tr.limits.burst, lastRefill: time.Now(),
		})
	}
	return v.(*tenantState)
}

// allow admits or throttles one request under the tenant's token
// bucket. With rate limiting disabled every request is admitted (but
// still counted, so /metrics shows per-tenant traffic either way).
func (tr *tenantRegistry) allow(name string) bool {
	t := tr.state(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr.limits.rate > 0 {
		now := time.Now()
		t.tokens = min(tr.limits.burst, t.tokens+now.Sub(t.lastRefill).Seconds()*tr.limits.rate)
		t.lastRefill = now
		if t.tokens < 1 {
			t.throttled++
			return false
		}
		t.tokens--
	}
	t.requests++
	return true
}

// spend debits eps from the tenant's budget, refusing (and debiting
// nothing) when it would overrun. The debit happens before the WAL
// append; a failed ingest refunds it, so the ledger tracks accepted
// reports only.
func (tr *tenantRegistry) spend(name string, eps float64) bool {
	t := tr.state(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr.limits.epsBudget > 0 && t.epsSpent+eps > tr.limits.epsBudget {
		t.budgetRefusals++
		return false
	}
	t.epsSpent += eps
	return true
}

// refund returns a reserved debit after a failed ingest.
func (tr *tenantRegistry) refund(name string, eps float64) {
	t := tr.state(name)
	t.mu.Lock()
	t.epsSpent -= eps
	t.mu.Unlock()
}

// snapshot copies every tenant's counters, sorted by name.
func (tr *tenantRegistry) snapshot() []tenantSnapshot {
	var all []tenantSnapshot
	tr.m.Range(func(_, v any) bool {
		t := v.(*tenantState)
		t.mu.Lock()
		all = append(all, tenantSnapshot{
			name: t.name, requests: t.requests, throttled: t.throttled,
			budgetRefusals: t.budgetRefusals, epsSpent: t.epsSpent,
		})
		t.mu.Unlock()
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	return all
}

// admit is the rate-limit middleware. Health and metrics stay exempt —
// a throttled tenant must not be able to blind the operator's probes.
func (s *Server) admit(next http.Handler) http.Handler {
	if s.tenants == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		tenant := tenantFrom(r)
		if !s.tenants.allow(tenant) {
			w.Header().Set("Retry-After", "1")
			writeAPIError(w, statusError(http.StatusTooManyRequests,
				"tenant %q is over its request rate limit (%g/s, burst %g)",
				tenant, s.tenants.limits.rate, s.tenants.limits.burst))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// reportDebit prices a report batch — count reports at the column's
// per-report ε — against the request's tenant. reserve debits the budget
// or returns the 429 refusal; refund returns a reserved debit after a
// failed ingest, so the ledger tracks accepted reports only. With no
// budget configured both do nothing.
func (s *Server) reportDebit(r *http.Request, column string, count int) (reserve func() error, refund func()) {
	if s.tenants == nil || s.tenants.limits.epsBudget <= 0 {
		return nil, func() {}
	}
	tenant := tenantFrom(r)
	eps := float64(count) * s.params.Epsilon
	reserve = func() error {
		if s.tenants.spend(tenant, eps) {
			return nil
		}
		t := s.tenants.state(tenant)
		t.mu.Lock()
		spent := t.epsSpent
		t.mu.Unlock()
		return apiErrorf(http.StatusTooManyRequests, codeBudgetExhausted, column,
			"tenant %q has spent ε=%g of its ε=%g budget; %d more reports at ε=%g would overrun it",
			tenant, spent, s.tenants.limits.epsBudget, count, s.params.Epsilon)
	}
	return reserve, func() { s.tenants.refund(tenant, eps) }
}
