package detect

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/idioms"
)

// TestMapExtension exercises the §9 future-work Map idiom: it finds
// data-parallel loops (the mri-q inner sweep shape), but only when asked
// for by name.
func TestMapExtension(t *testing.T) {
	mod, err := cc.Compile("t", `
void scale(double* out, double* in, int n, double a) {
    for (int i = 0; i < n; i++) {
        out[i] = in[i] * a + 1.0;
    }
}

void accum(double* qr, double* x, double kv, int n) {
    for (int v = 0; v < n; v++) {
        qr[v] = qr[v] + cos(kv * x[v]);
    }
}

void serial(double* a, int n) {
    for (int i = 1; i < n; i++) {
        a[i] = a[i-1] * 0.5;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}

	// Not part of the default roster: the Table 1 counts stay faithful.
	def := sequential(t, mod, Options{})
	for _, inst := range def.Instances {
		if inst.Idiom.Name == "Map" {
			t.Error("Map must not run by default")
		}
	}

	res := sequential(t, mod, Options{Idioms: []string{"Map"}})
	got := map[string]int{}
	for _, inst := range res.Instances {
		if inst.Idiom.Name != "Map" || inst.Idiom.Class != idioms.ClassMap {
			t.Errorf("unexpected instance %s/%s", inst.Idiom.Name, inst.Idiom.Class)
		}
		got[inst.Function.Ident]++
	}
	if got["scale"] != 1 {
		t.Errorf("scale: %d maps, want 1", got["scale"])
	}
	if got["accum"] != 1 {
		t.Errorf("accum (read-modify-write at the iterator): %d maps, want 1", got["accum"])
	}
	if got["serial"] != 0 {
		t.Errorf("serial recurrence misdetected as a map (%d)", got["serial"])
	}
}
