package xmath

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randMatrix2(r *rand.Rand) Matrix2 {
	var m Matrix2
	for i := range m {
		m[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

// Generate implements quick.Generator so Matrix2 can be used directly
// in property-based tests.
func (Matrix2) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randMatrix2(r))
}

func TestIdentityIsMulNeutral(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	id := Identity2()
	for i := 0; i < 100; i++ {
		m := randMatrix2(r)
		if d := m.Mul(id).MaxAbsDiff(m); d > 1e-15 {
			t.Fatalf("m*I != m, diff %g", d)
		}
		if d := id.Mul(m).MaxAbsDiff(m); d > 1e-15 {
			t.Fatalf("I*m != m, diff %g", d)
		}
	}
}

func TestMulAssociativity(t *testing.T) {
	f := func(a, b, c Matrix2) bool {
		l := a.Mul(b).Mul(c)
		r := a.Mul(b.Mul(c))
		return l.MaxAbsDiff(r) < 1e-10*(1+l.FrobeniusNorm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubRoundtrip(t *testing.T) {
	f := func(a, b Matrix2) bool {
		return a.Add(b).Sub(b).MaxAbsDiff(a) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHermitianInvolution(t *testing.T) {
	f := func(a Matrix2) bool {
		return a.Hermitian().Hermitian().MaxAbsDiff(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHermitianReversesProducts(t *testing.T) {
	f := func(a, b Matrix2) bool {
		l := a.Mul(b).Hermitian()
		r := b.Hermitian().Mul(a.Hermitian())
		return l.MaxAbsDiff(r) < 1e-10*(1+l.FrobeniusNorm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		m := randMatrix2(r)
		inv, ok := m.Inv()
		if !ok {
			continue // singular sample, fine
		}
		if d := m.Mul(inv).MaxAbsDiff(Identity2()); d > 1e-9 {
			t.Fatalf("m*m^-1 != I, diff %g (m=%v)", d, m)
		}
	}
}

func TestSingularInverse(t *testing.T) {
	m := Matrix2{1, 2, 2, 4} // rank 1
	if _, ok := m.Inv(); ok {
		t.Fatal("expected singular matrix to report non-invertible")
	}
}

func TestDetOfProduct(t *testing.T) {
	f := func(a, b Matrix2) bool {
		d1 := a.Mul(b).Det()
		d2 := a.Det() * b.Det()
		return cabs(d1-d2) < 1e-9*(1+cabs(d1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSandwichHAgainstExplicit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p, b, q := randMatrix2(r), randMatrix2(r), randMatrix2(r)
		want := p.Mul(b).Mul(q.Hermitian())
		got := b.SandwichH(p, q)
		if d := got.MaxAbsDiff(want); d > 1e-12 {
			t.Fatalf("SandwichH mismatch %g", d)
		}
	}
}

func TestTraceAndTranspose(t *testing.T) {
	m := Matrix2{1 + 2i, 3, 4, 5 - 1i}
	if m.Trace() != 6+1i {
		t.Fatalf("trace = %v", m.Trace())
	}
	mt := m.Transpose()
	if mt[1] != 4 || mt[2] != 3 {
		t.Fatalf("transpose = %v", mt)
	}
}

func TestScaleDistributes(t *testing.T) {
	f := func(a, b Matrix2) bool {
		s := complex(1.5, -0.25)
		l := a.Add(b).Scale(s)
		r := a.Scale(s).Add(b.Scale(s))
		return l.MaxAbsDiff(r) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityInverseAndUnitDet(t *testing.T) {
	id := Identity2()
	if id.Det() != 1 {
		t.Fatalf("det(I) = %v", id.Det())
	}
	inv, ok := id.Inv()
	if !ok || inv.MaxAbsDiff(id) != 0 {
		t.Fatal("I^-1 != I")
	}
}

func TestFrobeniusNormZero(t *testing.T) {
	if (Matrix2{}).FrobeniusNorm() != 0 {
		t.Fatal("||0|| != 0")
	}
	if math.Abs(Identity2().FrobeniusNorm()-math.Sqrt2) > 1e-15 {
		t.Fatal("||I|| != sqrt(2)")
	}
}

func TestMulHMatchesMulHermitian(t *testing.T) {
	f := func(a, b Matrix2) bool {
		return a.MulH(b).MaxAbsDiff(a.Mul(b.Hermitian())) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
