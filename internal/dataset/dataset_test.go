package dataset

import (
	"math"
	"testing"
)

func TestByName(t *testing.T) {
	d, err := ByName("Epinions")
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes != 75872 || d.Edges != 396026 {
		t.Fatalf("Epinions sizes %d/%d do not match Table 2", d.Nodes, d.Edges)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{"CAGrQc", "CAHepPh", "Brightkite", "Epinions"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names %v, want paper order %v", got, want)
		}
	}
}

func TestLoadScaledSizes(t *testing.T) {
	// At scale s the stand-in has s·n nodes and ≈ s·m edges (±3%),
	// preserving the original average degree.
	for _, name := range Names() {
		d, _ := ByName(name)
		const scale = 0.05
		g, err := Load(name, scale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantN := int(float64(d.Nodes) * scale)
		if g.N() != wantN {
			t.Errorf("%s: n=%d, want %d", name, g.N(), wantN)
		}
		wantM := float64(d.Edges) * scale
		if math.Abs(float64(g.M())-wantM) > 0.03*wantM {
			t.Errorf("%s: m=%d, want ≈%.0f", name, g.M(), wantM)
		}
		if !g.IsConnected() {
			t.Errorf("%s: stand-in not connected", name)
		}
	}
}

func TestLoadFullCAGrQc(t *testing.T) {
	// Full-size generation of the smallest dataset matches Table 2.
	g, err := Load("CAGrQc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5242 {
		t.Fatalf("n=%d, want 5242", g.N())
	}
	if math.Abs(float64(g.M())-28968) > 0.01*28968 {
		t.Fatalf("m=%d, want ≈28968", g.M())
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load("CAGrQc", 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Load("CAGrQc", 1.5); err == nil {
		t.Error("scale >1 accepted")
	}
	if _, err := Load("bogus", 1); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestPowerLawExact(t *testing.T) {
	g, err := PowerLawExact(2000, 11000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("n=%d", g.N())
	}
	if math.Abs(float64(g.M())-11000) > 0.02*11000 {
		t.Fatalf("m=%d, want ≈11000", g.M())
	}
	// Heavy-tailed: max degree far above mean.
	s := g.ComputeStats()
	if float64(s.MaxDegree) < 4*s.MeanDegree {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.1f", s.MaxDegree, s.MeanDegree)
	}
}

func TestPowerLawExactDeterministic(t *testing.T) {
	a, _ := PowerLawExact(500, 3000, 9)
	b, _ := PowerLawExact(500, 3000, 9)
	if a.M() != b.M() {
		t.Fatalf("nondeterministic edge count: %d vs %d", a.M(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		ra, rb := a.Neighbors(u), b.Neighbors(u)
		if len(ra) != len(rb) {
			t.Fatal("nondeterministic adjacency")
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatal("nondeterministic adjacency")
			}
		}
	}
}

func TestPowerLawExactValidation(t *testing.T) {
	if _, err := PowerLawExact(1, 0, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := PowerLawExact(5, 100, 1); err == nil {
		t.Error("impossible m accepted")
	}
	// m below the tree floor is raised to n−1, not an error.
	g, err := PowerLawExact(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() < 9 {
		t.Fatalf("m=%d below spanning-tree floor", g.M())
	}
}

func TestScalability(t *testing.T) {
	const scale = 0.01 // 1k–10k nodes for the test
	prevN, prevM := 0, 0
	for i := 1; i <= 3; i++ {
		g, err := Scalability(i, scale)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() <= prevN || g.M() <= prevM {
			t.Fatalf("G%d not larger than G%d", i, i-1)
		}
		prevN, prevM = g.N(), g.M()
	}
	if _, err := Scalability(0, 1); err == nil {
		t.Error("index 0 accepted")
	}
	if _, err := Scalability(11, 1); err == nil {
		t.Error("index 11 accepted")
	}
	if _, err := Scalability(1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
}
