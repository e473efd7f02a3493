package idiomatic

import "context"

// Client is an authenticated tenant identity, attached to request contexts
// by the serving layer (the httpapi key middleware) and carried end to end:
// Service.Submit applies its per-client intake bounds and forwards name and
// weight to the solver pool's weighted-fair task order via
// detect.Submission. The zero Client is the anonymous tier — exempt from
// per-client caps and rate limits, so a service without auth behaves
// exactly like a single-tenant one.
type Client struct {
	// Name is the tenant identity ("" = anonymous).
	Name string `json:"name"`
	// Weight is the tenant's fair-share weight: solver-pool tasks served
	// per deficit-round-robin turn while it has work queued (0 = 1).
	Weight int `json:"weight"`
	// Admin grants access to the admin surface (GET /v1/clients).
	Admin bool `json:"admin,omitempty"`
}

type clientKey struct{}

// WithClient returns a context carrying the given tenant identity.
func WithClient(ctx context.Context, c Client) context.Context {
	return context.WithValue(ctx, clientKey{}, c)
}

// ClientFromContext reports the tenant identity attached by WithClient, if
// any. A missing identity is the anonymous tier.
func ClientFromContext(ctx context.Context) (Client, bool) {
	c, ok := ctx.Value(clientKey{}).(Client)
	return c, ok
}
