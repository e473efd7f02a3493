package idiomatic_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/idiomatic"
	"repro/internal/idioms"
)

const dotSource = `
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}`

func newPackService(t *testing.T, opts idiomatic.ServiceOptions) *idiomatic.Service {
	t.Helper()
	svc, err := idiomatic.NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestServicePackLifecycle(t *testing.T) {
	ctx := context.Background()
	svc := newPackService(t, idiomatic.ServiceOptions{Workers: 2})

	// Unknown pack / idiom / target are intake errors, never empty results.
	if _, err := svc.Detect(ctx, idiomatic.DetectRequest{Source: dotSource, Pack: "nope"}); err == nil ||
		!strings.Contains(err.Error(), `unknown pack "nope"`) {
		t.Fatalf("unknown pack err = %v", err)
	}
	if _, err := svc.Match(ctx, idiomatic.MatchRequest{Source: dotSource, Target: "TPU"}); err == nil ||
		!strings.Contains(err.Error(), `unknown target device "TPU"`) {
		t.Fatalf("unknown target err = %v", err)
	}

	// Registration failures surface the shared CompilePack error verbatim —
	// the same text `idlc -pack` prints.
	badTops := []idiomatic.TopSpec{{Top: "NoSuchConstraint"}}
	_, svcErr := svc.RegisterPack("p", idiomatic.LibrarySource(), badTops)
	_, cliErr := idioms.CompilePack("p", idiomatic.LibrarySource(), badTops, 0)
	if svcErr == nil || cliErr == nil || svcErr.Error() != cliErr.Error() {
		t.Fatalf("service and CLI validation diverge:\n  service: %v\n  cli:     %v", svcErr, cliErr)
	}

	info, err := svc.RegisterPack("p", idiomatic.LibrarySource(), []idiomatic.TopSpec{
		{Name: "Dot", Top: "Reduction", Class: "Scalar Reduction", Scheme: "reduction", Kind: "reduction"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || len(info.Idioms) != 1 || info.Idioms[0].Name != "Dot" {
		t.Fatalf("pack info = %+v", info)
	}
	if st := svc.Stats(); st.Packs != 1 {
		t.Errorf("stats packs = %d, want 1", st.Packs)
	}
	if _, ok := svc.PackByName("p"); !ok {
		t.Error("PackByName missed a registered pack")
	}

	if _, err := svc.Detect(ctx, idiomatic.DetectRequest{Source: dotSource, Pack: "p", Idioms: []string{"Reduction"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown idiom "Reduction" in pack "p"`) {
		t.Fatalf("unknown pack idiom err = %v", err)
	}

	// The pack detects and transforms with ranked backend estimates.
	res, err := svc.Match(ctx, idiomatic.MatchRequest{Name: "dot.c", Source: dotSource, Pack: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || len(res.Findings) != 1 || res.Findings[0].Idiom != "Dot" {
		t.Fatalf("match result = %+v", res)
	}
	if res.Pack != "p" || res.PackVersion != 1 {
		t.Errorf("pack identity = %s v%d, want p v1", res.Pack, res.PackVersion)
	}
	plan := res.Plans[0]
	if plan.Err != "" || !strings.HasPrefix(plan.Extern, "lift.reduction#") {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Backend != "lift" || plan.Device != "GPU" {
		t.Errorf("selected backend = %s on %s, want lift on GPU", plan.Backend, plan.Device)
	}
	if len(plan.Offload) != 3 || plan.Offload[0].Device != "CPU" || len(plan.Offload[0].Choices) == 0 {
		t.Errorf("offload ranking = %+v", plan.Offload)
	}

	// Target pinning restricts the ranking and selection to one device.
	res, err = svc.Match(ctx, idiomatic.MatchRequest{Source: dotSource, Pack: "p", Target: "CPU"})
	if err != nil {
		t.Fatal(err)
	}
	plan = res.Plans[0]
	if plan.Device != "CPU" || len(plan.Offload) != 1 || plan.Offload[0].Device != "CPU" {
		t.Errorf("CPU-pinned plan = %+v", plan)
	}
	// On the CPU the best reduction backend is halide (0.55 ties lift, name
	// breaks the tie deterministically).
	if plan.Backend != "halide" {
		t.Errorf("CPU reduction backend = %s, want halide", plan.Backend)
	}
}

// TestPackSchemeWinsOverBuiltinName pins that a pack idiom reusing a
// built-in idiom name keeps its declared transform scheme and claim set —
// the per-name tables in transform.Apply and detect.claimSet must not
// shadow it.
func TestPackSchemeWinsOverBuiltinName(t *testing.T) {
	ctx := context.Background()
	svc := newPackService(t, idiomatic.ServiceOptions{Workers: 2})
	if _, err := svc.RegisterPack("p", idiomatic.LibrarySource(), []idiomatic.TopSpec{
		// Deliberately named after the built-in Histogram idiom, but it is
		// a reduction: the declared scheme must drive the transformation.
		{Name: "Histogram", Top: "Reduction", Scheme: "reduction", Kind: "reduction"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Match(ctx, idiomatic.MatchRequest{Name: "dot.c", Source: dotSource, Pack: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || len(res.Plans) != 1 {
		t.Fatalf("result = %+v", res)
	}
	plan := res.Plans[0]
	if plan.Err != "" || !strings.HasPrefix(plan.Extern, "lift.reduction#") {
		t.Fatalf("name shadowed the declared scheme: plan = %+v", plan)
	}
}

// TestBranchyKernelExcludesStraightLineAPIs pins the §6.3 Halide
// restriction in backend selection: an outlined kernel containing control
// flow must never select (or rank) a NeedsStraightLineKernel API, even when
// that API would win on efficiency.
func TestBranchyKernelExcludesStraightLineAPIs(t *testing.T) {
	ctx := context.Background()
	svc := newPackService(t, idiomatic.ServiceOptions{Workers: 2})
	straight := `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i]; }
    return s;
}`
	branchy := `
double maxval(double* a, int n) {
    double m = 0.0;
    for (int i = 0; i < n; i++) {
        if (a[i] > m) { m = a[i]; }
    }
    return m;
}`
	// Straight-line reduction on the CPU: halide wins the 0.55 tie by name.
	res, err := svc.Match(ctx, idiomatic.MatchRequest{Source: straight, Target: "CPU"})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Plans[0]; p.Err != "" || p.Backend != "halide" {
		t.Fatalf("straight-line CPU reduction plan = %+v", p)
	}
	// Branchy reduction: halide cannot express it; lift takes over and the
	// extern is re-qualified accordingly.
	res, err = svc.Match(ctx, idiomatic.MatchRequest{Source: branchy, Target: "CPU"})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plans[0]
	if p.Err != "" || p.Backend != "lift" || !strings.HasPrefix(p.Extern, "lift.reduction#") {
		t.Fatalf("branchy CPU reduction plan = %+v", p)
	}
	for _, off := range p.Offload {
		for _, c := range off.Choices {
			if c.API == "halide" {
				t.Errorf("halide ranked for a branchy kernel on %s", off.Device)
			}
		}
	}
}

// TestMatchResultValidatesTarget pins that the exported Task.MatchResult
// reports an invalid target in-band instead of silently planning for a
// default device.
func TestMatchResultValidatesTarget(t *testing.T) {
	svc := newPackService(t, idiomatic.ServiceOptions{Workers: 1})
	task, err := svc.Submit(context.Background(), idiomatic.DetectRequest{Source: dotSource})
	if err != nil {
		t.Fatal(err)
	}
	res := task.MatchResult(0, "gpu") // wrong case on purpose
	if !strings.Contains(res.Err, `unknown target device "gpu"`) || res.Plans != nil {
		t.Fatalf("result = %+v", res)
	}
}

// TestPackReplacementConcurrentWithMatching is the registry-concurrency
// acceptance test: packs are re-registered while matches stream under -race,
// and every in-flight result must be consistent with the snapshot it
// resolved at intake — odd versions detect (Reduction top), even versions
// cannot (GEMM top on a dot product). A solve-memo leak across versions
// (same source fingerprint, same pack and idiom name) would surface here as
// an even-version result carrying the odd version's finding.
func TestPackReplacementConcurrentWithMatching(t *testing.T) {
	ctx := context.Background()
	svc := newPackService(t, idiomatic.ServiceOptions{Workers: 4})

	register := func(version int) {
		top := "Reduction"
		if version%2 == 0 {
			top = "GEMM"
		}
		info, err := svc.RegisterPack("p", idiomatic.LibrarySource(), []idiomatic.TopSpec{
			{Name: "Dot", Top: top, Scheme: "reduction", Kind: "reduction"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if info.Version != uint64(version) {
			t.Errorf("registration version = %d, want %d", info.Version, version)
		}
	}
	register(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := svc.Match(ctx, idiomatic.MatchRequest{Name: "dot.c", Source: dotSource, Pack: "p"})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Err != "" {
					t.Errorf("in-band error: %s", res.Err)
					return
				}
				want := 0
				if res.PackVersion%2 == 1 {
					want = 1
				}
				if len(res.Findings) != want {
					t.Errorf("pack v%d: %d finding(s), want %d — result crossed registration versions",
						res.PackVersion, len(res.Findings), want)
					return
				}
				if want == 1 && (res.Findings[0].Idiom != "Dot" || res.Plans[0].Err != "") {
					t.Errorf("pack v%d: finding/plan = %+v / %+v", res.PackVersion, res.Findings[0], res.Plans[0])
					return
				}
			}
		}()
	}
	for v := 2; v <= 21; v++ {
		register(v)
	}
	close(stop)
	wg.Wait()
}

// TestPackReplacementConcurrentWithPruning re-runs the registry-concurrency
// scenario with explain mode on. Similarity signatures are compiled per pack
// version, and near misses read them: a stale signature surviving a
// replacement would report the wrong version's diagnosis. Here the
// Reduction-top version must match the dot product and the GEMM-top version
// must report it as its near miss. Packs are replaced every few milliseconds
// while explain-mode matches stream on four goroutines; run under -race this
// also exercises every signature-publication path.
func TestPackReplacementConcurrentWithPruning(t *testing.T) {
	ctx := context.Background()
	svc := newPackService(t, idiomatic.ServiceOptions{Workers: 4})

	register := func(version int) {
		top := "Reduction"
		if version%2 == 0 {
			top = "GEMM"
		}
		info, err := svc.RegisterPack("p", idiomatic.LibrarySource(), []idiomatic.TopSpec{
			{Name: "Dot", Top: top, Scheme: "reduction", Kind: "reduction"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if info.Version != uint64(version) {
			t.Errorf("registration version = %d, want %d", info.Version, version)
		}
	}
	register(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := svc.Match(ctx, idiomatic.MatchRequest{
					Name: "dot.c", Source: dotSource, Pack: "p",
					Opts: idiomatic.RequestOptions{Explain: true},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Err != "" {
					t.Errorf("in-band error: %s", res.Err)
					return
				}
				if res.PackVersion%2 == 1 {
					// Reduction top: must match. A missing finding here means
					// the GEMM version's problem crossed the replacement.
					if len(res.Findings) != 1 || res.Findings[0].Idiom != "Dot" {
						t.Errorf("pack v%d: findings = %+v — a stale version lost a live match",
							res.PackVersion, res.Findings)
						return
					}
				} else {
					// GEMM top: cannot match a dot product; explain mode must
					// report the near miss for the version actually resolved.
					if len(res.Findings) != 0 {
						t.Errorf("pack v%d: unexpected findings %+v", res.PackVersion, res.Findings)
						return
					}
					if len(res.NearMisses) != 1 || res.NearMisses[0].Idiom != "Dot" {
						t.Errorf("pack v%d: near misses = %+v, want one Dot row", res.PackVersion, res.NearMisses)
						return
					}
				}
			}
		}()
	}
	for v := 2; v <= 21; v++ {
		time.Sleep(3 * time.Millisecond)
		register(v)
	}
	close(stop)
	wg.Wait()
}
