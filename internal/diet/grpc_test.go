package diet

import (
	"strings"
	"testing"

	"repro/internal/rpc"
)

func grpcDeployment(t *testing.T) *Deployment {
	t.Helper()
	rpc.ResetLocal()
	return newTestDeployment(t, DeploymentSpec{
		MAName: "MA-grpc", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-grpc-a", Parent: "LA1", Services: []ServiceSpec{sleepService("double", 0, nil)}},
			{Name: "SeD-grpc-b", Parent: "LA1", Services: []ServiceSpec{sleepService("double", 0, nil)}},
		},
		Local: true,
	})
}

func TestFunctionHandleDefault(t *testing.T) {
	d := grpcDeployment(t)
	client, _ := d.Client()
	h, err := client.FunctionHandleDefault("double")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 10, Volatile)
	info, err := h.GrpcCall(p)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.ScalarInt(1); v != 20 {
		t.Errorf("result %d, want 20", v)
	}
	if info.Server == "" {
		t.Error("no server recorded")
	}
	// Service mismatch is rejected.
	wrong, _ := NewProfile("other", 0, 0, 1)
	if _, err := h.GrpcCall(wrong); err == nil {
		t.Error("profile/handle service mismatch should fail")
	}
	if _, err := client.FunctionHandleDefault(""); err == nil {
		t.Error("empty service should fail")
	}
}

func TestFunctionHandleBound(t *testing.T) {
	d := grpcDeployment(t)
	client, _ := d.Client()
	// Bind explicitly to the second SeD; every call must land there.
	h, err := client.FunctionHandleInit("double", ServerRef{
		Name: "SeD-grpc-b", Addr: d.SeDs[1].Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		info, err := h.GrpcCall(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Server != "SeD-grpc-b" {
			t.Fatalf("bound handle used %q", info.Server)
		}
	}
}

func TestGrpcAsyncAndWaitAny(t *testing.T) {
	d := grpcDeployment(t)
	client, _ := d.Client()
	h, _ := client.FunctionHandleDefault("double")
	var calls []*AsyncCall
	var profiles []*Profile
	for i := 0; i < 4; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		profiles = append(profiles, p)
		calls = append(calls, h.GrpcCallAsync(p))
	}
	idx, info, err := GrpcWaitAny(calls)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx >= 4 || info == nil {
		t.Fatalf("GrpcWaitAny = %d, %v", idx, info)
	}
	if err := GrpcWaitAll(calls); err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		if v, _ := p.ScalarInt(1); v != int64(2*i) {
			t.Errorf("call %d result %d, want %d", i, v, 2*i)
		}
	}
	if _, _, err := GrpcWaitAny(nil); err == nil {
		t.Error("GrpcWaitAny on empty set should fail")
	}
}

func TestGrpcAsyncBoundHandle(t *testing.T) {
	d := grpcDeployment(t)
	client, _ := d.Client()
	h, _ := client.FunctionHandleInit("double", ServerRef{
		Name: "SeD-grpc-a", Addr: d.SeDs[0].Addr(),
	})
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 21, Volatile)
	info, err := GrpcWait(h.GrpcCallAsync(p))
	if err != nil {
		t.Fatal(err)
	}
	if info.Server != "SeD-grpc-a" {
		t.Errorf("bound async used %q", info.Server)
	}
	if v, _ := p.ScalarInt(1); v != 42 {
		t.Errorf("result %d", v)
	}
}

func TestGrpcInitializeAliases(t *testing.T) {
	// The alias entry points must behave like their diet_ counterparts.
	d := grpcDeployment(t)
	client, err := InitializeConfig(ClientConfig{Naming: d.NamingAddr, MAName: "MA-grpc"})
	if err != nil {
		t.Fatal(err)
	}
	GrpcFinalize(client) // must not invalidate anything
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 2, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatal(err)
	}
}

// TestFunctionHandleBoundShipsWork: a bound handle passes its call options
// through like a default one. WithWork reaches the SeD's solve record, and
// a later call without it ships 0 rather than the hint a reused profile
// still carries.
func TestFunctionHandleBoundShipsWork(t *testing.T) {
	d := grpcDeployment(t)
	client, _ := d.Client()
	h, _ := client.FunctionHandleInit("double", ServerRef{
		Name: "SeD-grpc-b", Addr: d.SeDs[1].Addr(),
	})
	lastWork := func() float64 {
		recs := d.SeDs[1].SolveRecords()
		if len(recs) == 0 {
			t.Fatal("bound SeD recorded no solve")
		}
		return recs[len(recs)-1].WorkGFlops
	}
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	if _, err := h.GrpcCall(p, WithWork(5)); err != nil {
		t.Fatal(err)
	}
	if w := lastWork(); w != 5 {
		t.Errorf("bound GrpcCall WithWork(5) recorded work %g, want 5", w)
	}
	if _, err := GrpcWait(h.GrpcCallAsync(p, WithWork(6))); err != nil {
		t.Fatal(err)
	}
	if w := lastWork(); w != 6 {
		t.Errorf("bound GrpcCallAsync WithWork(6) recorded work %g, want 6", w)
	}

	// Leave a stale hint on the profile through a default-handle call.
	if _, err := client.Call(p, WithWork(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.GrpcCall(p); err != nil {
		t.Fatal(err)
	}
	if w := lastWork(); w != 0 {
		t.Errorf("bound GrpcCall without WithWork recorded work %g, want 0 (not the stale hint)", w)
	}
	if _, err := client.Call(p, WithWork(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := GrpcWait(h.GrpcCallAsync(p)); err != nil {
		t.Fatal(err)
	}
	if w := lastWork(); w != 0 {
		t.Errorf("bound GrpcCallAsync without WithWork recorded work %g, want 0 (not the stale hint)", w)
	}
}

// TestGrpcCallAsyncRejectsServiceMismatch: the async verb checks the
// profile against the handle's service, as GrpcCall does, bound or not.
func TestGrpcCallAsyncRejectsServiceMismatch(t *testing.T) {
	d := grpcDeployment(t)
	client, _ := d.Client()
	bound, _ := client.FunctionHandleInit("triple", ServerRef{
		Name: "SeD-grpc-a", Addr: d.SeDs[0].Addr(),
	})
	def, _ := client.FunctionHandleDefault("triple")
	for name, h := range map[string]*FunctionHandle{"bound": bound, "default": def} {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, 3, Volatile)
		_, err := GrpcWait(h.GrpcCallAsync(p))
		if err == nil || !strings.Contains(err.Error(), `handle is for "triple"`) {
			t.Errorf("%s handle: async call of a %q profile on a %q handle: err %v, want a service mismatch",
				name, p.Service, h.Service, err)
		}
	}
}
