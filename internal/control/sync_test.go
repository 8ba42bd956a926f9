package control

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/cppki"
	"sciera/internal/simnet"
)

// doSync is Do waiting on the transport for its answer.
func doSync(t *testing.T, c *Client, req *Request) (resp *Response, err error) {
	t.Helper()
	if werr := simnet.Await(c.Net, func(done func()) {
		c.Do(req, func(r *Response, e error) { resp, err = r, e; done() })
	}); werr != nil {
		t.Fatal(werr)
	}
	return resp, err
}

// TestDoWaitsOnTheSimulator: a caller blocking on a request steps the
// simulator until its answer is in, and a request nobody answers times
// out on the simulator's clock.
func TestDoWaitsOnTheSimulator(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	reg := testRegistry(t)
	svc := startService(t, sim, leafIA, reg, cppki.NewStore(), nil)
	defer svc.Close()

	cli, err := NewClient(sim, svc.Addr(), netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := doSync(t, cli, &Request{Type: "paths", Dst: leafIA})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ups) != 1 {
		t.Fatalf("ups = %d, want 1", len(resp.Ups))
	}

	// Blocking error propagation: a request the service rejects.
	resp, err = doSync(t, cli, &Request{Type: "nonsense"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Error("unknown request type produced no error")
	}

	silent, err := NewClient(sim, netip.AddrPortFrom(sim.AllocAddr(), 1), netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.Timeout = 3 * time.Second
	start := sim.Now()
	if _, err := doSync(t, silent, &Request{Type: "paths", Dst: leafIA}); err == nil {
		t.Fatal("request to nowhere answered")
	}
	if waited := sim.Now().Sub(start); waited != 3*time.Second {
		t.Errorf("timed out after %v of virtual time, want 3s", waited)
	}
}

// TestDoTimeoutOnRealTimers: on UDPNet a timeout fires on a timer
// goroutine, possibly before Do has returned; the request still resolves
// exactly once (under -race: without touching what Do is still writing).
func TestDoTimeoutOnRealTimers(t *testing.T) {
	n := simnet.NewUDPNet()
	defer n.Close()
	sink, err := n.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) {})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(n, sink.LocalAddr(), netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = time.Nanosecond
	for i := 0; i < 20; i++ {
		if _, err := doSync(t, cli, &Request{Type: "paths", Dst: leafIA}); err == nil {
			t.Fatal("request to a silent socket answered")
		}
	}
}
