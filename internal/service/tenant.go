package service

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Per-tenant admission: a token-bucket rate limit on requests. The
// tenant is whoever the gateway says it is — `Authorization: Bearer
// <tenant>` — which is accounting, not authentication: the server is
// expected to sit behind a gateway that has already authenticated the
// caller, and what this layer adds is the per-caller throttle. Privacy
// budget accounting is the gateway's job too: every report is already
// ε-LDP when its client perturbs it, so the server keeps no ledger.
//
// Requests without an Authorization header share the "anonymous"
// tenant, so an unconfigured deployment behaves like one big tenant.

// anonTenant is the tenant of requests carrying no bearer token.
const anonTenant = "anonymous"

// tenantLimits is the (global, per-tenant) admission configuration.
type tenantLimits struct {
	rate  float64 // requests/second refill; <= 0 disables rate limiting
	burst float64 // bucket capacity; >= 1 when rate limiting is on
}

// tenantState is one tenant's bucket. The mutex covers the counters;
// the struct is tiny and per-tenant, so contention is the tenant's own
// request concurrency, never cross-tenant.
type tenantState struct {
	name string

	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time
	requests   int64
	throttled  int64
}

// tenantSnapshot is a point-in-time copy for /metrics and /v1/stats.
type tenantSnapshot struct {
	name      string
	requests  int64
	throttled int64
}

type tenantRegistry struct {
	limits tenantLimits
	m      sync.Map // tenant name -> *tenantState
}

// newTenantRegistry returns nil when rate limiting is off — no
// admission middleware at all.
func newTenantRegistry(l tenantLimits) *tenantRegistry {
	if l.rate <= 0 {
		return nil
	}
	if l.burst < 1 {
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
// bucket.
func (tr *tenantRegistry) allow(name string) bool {
	t := tr.state(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.tokens = min(tr.limits.burst, t.tokens+now.Sub(t.lastRefill).Seconds()*tr.limits.rate)
	t.lastRefill = now
	if t.tokens < 1 {
		t.throttled++
		return false
	}
	t.tokens--
	t.requests++
	return true
}

// snapshot copies every tenant's counters, sorted by name.
func (tr *tenantRegistry) snapshot() []tenantSnapshot {
	var all []tenantSnapshot
	tr.m.Range(func(_, v any) bool {
		t := v.(*tenantState)
		t.mu.Lock()
		all = append(all, tenantSnapshot{name: t.name, requests: t.requests, throttled: t.throttled})
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
