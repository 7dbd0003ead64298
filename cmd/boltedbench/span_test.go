package main

import (
	"math"
	"testing"
)

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{{0, 10}, {20, 30}}, 0, 100, 20},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 0, 100, 15},
		{"nested", []interval{{0, 10}, {2, 3}}, 0, 100, 10},
		{"identical", []interval{{10, 40}, {10, 40}}, 0, 100, 30},
		{"touching", []interval{{0, 10}, {10, 20}}, 0, 100, 20},
		{"unsorted", []interval{{50, 60}, {0, 10}, {5, 55}}, 0, 100, 60},
		{"clipped", []interval{{-10, 10}, {90, 120}}, 0, 100, 20},
		{"outside", []interval{{200, 300}}, 0, 100, 0},
	} {
		if got := unionLen(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.want)
		}
	}
}

func sp(id, parent int, layer string, start, end int64) span {
	return span{ID: id, Parent: parent, Layer: layer, Start: start, End: end}
}

// Self time subtracts the union of the children's intervals, not
// their sum.
func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, layerCore, 0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []span{sp(2, 1, layerHIL, 10, 30), sp(3, 1, layerBMI, 40, 50)}, 70},
		{"overlapping", []span{sp(2, 1, layerHIL, 10, 30), sp(3, 1, layerBMI, 20, 50)}, 60},
		{"nested", []span{sp(2, 1, layerDriver, 60, 70), sp(3, 1, layerKeylime, 62, 65)}, 90},
		{"concurrent siblings", []span{sp(2, 1, layerHIL, 10, 40), sp(3, 1, layerHIL, 10, 40)}, 70},
		{"child pokes outside", []span{sp(2, 1, layerStore, 90, 130)}, 90},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// One cycle as the recorder sees it: link must rebuild the tree and
// budget must charge each layer its self time.
func TestLinkAndBudget(t *testing.T) {
	const waitKey = "GET /v1/operations/op-0001?wait=1"
	spans := []span{
		{ID: 1, Layer: layerHarness, Name: "cycle", Op: "t0", Start: 0, End: 1000},
		// client calls name their cycle when recorded
		{ID: 2, Parent: 1, Layer: layerRemote, Key: "POST /v1/enclaves/t0/nodes:acquire", Op: "t0", Start: 0, End: 200},
		{ID: 3, Parent: 1, Layer: layerRemote, Key: waitKey, Op: "t0", Start: 210, End: 800},
		{ID: 4, Parent: 1, Layer: layerRemote, Key: "DELETE /v1/enclaves/t0/nodes/node00", Op: "t0", Start: 810, End: 990},
		// server spans know only their request line
		{ID: 5, Layer: layerRemote, Server: true, Key: "POST /v1/enclaves/t0/nodes:acquire", Start: 50, End: 150},
		{ID: 6, Layer: layerRemote, Server: true, Key: waitKey, Op: "op-0001", Start: 250, End: 780},
		{ID: 7, Layer: layerRemote, Server: true, Key: "DELETE /v1/enclaves/t0/nodes/node00", Start: 850, End: 950},
		// the operation starts inside the submit and ends inside the wait
		{ID: 8, Layer: layerCore, Name: "operation", Op: "op-0001", Key: waitKey, Start: 100, End: 750},
		// backend calls during the operation, two of them concurrent, one nested
		{ID: 9, Layer: layerHIL, Op: "op-0001", Node: "node00", Start: 300, End: 400},
		{ID: 10, Layer: layerHIL, Op: "op-0001", Node: "node01", Start: 350, End: 450},
		{ID: 11, Layer: layerDriver, Name: "Boot", Op: "op-0001", Node: "node00", Start: 500, End: 600},
		{ID: 12, Layer: layerKeylime, Name: "Register", Op: "op-0001", Node: "node00", Start: 520, End: 560},
		// a store flush with no identity lands on the handler around it;
		// an append that names its operation lands on the operation
		{ID: 13, Layer: layerStore, Name: "Sync", Start: 700, End: 740},
		{ID: 15, Layer: layerStore, Name: "AppendBuffered", Op: "op-0001", Start: 610, End: 650},
		// the release path: backend work inside its handler, after the operation
		{ID: 14, Layer: layerHIL, Op: "op-0001", Node: "node00", Start: 860, End: 900},
	}
	link(spans)
	wantParent := map[int]int{5: 2, 6: 3, 7: 4, 8: 6, 9: 8, 10: 8, 11: 8, 12: 11, 13: 6, 14: 7, 15: 8}
	for _, s := range spans {
		if want, ok := wantParent[s.ID]; ok && s.Parent != want {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, want)
		}
	}
	rows, coverage := budget(spans)
	self := make(map[string]float64)
	for _, r := range rows {
		self[r.Layer] = r.SelfMs * 1e6 // back to ns
	}
	// core: 650 long, children cover [300,450] ∪ [500,600] ∪ [610,650] = 290
	if got := self[layerCore]; math.Abs(got-360) > 1e-6 {
		t.Errorf("core self = %g, want 360", got)
	}
	// driver.Boot: 100 long with a 40-long registrar call inside
	if got := self[layerDriver]; math.Abs(got-60) > 1e-6 {
		t.Errorf("driver self = %g, want 60", got)
	}
	// remote: clients (200-100)+(590-530)+(180-100), servers 100 + (530-500: the
	// operation clipped to the wait handler covers [250,750]) + (100-40)
	if got := self[layerRemote]; math.Abs(got-(100+60+80+100+30+60)) > 1e-6 {
		t.Errorf("remote self = %g, want 430", got)
	}
	// the client calls cover 200+590+180 of the 1000-long cycle
	if coverage != 97 {
		t.Errorf("coverage = %g%%, want 97%%", coverage)
	}
}

func TestRouteAndOpOfPath(t *testing.T) {
	for _, c := range []struct{ method, path, route, op string }{
		{"POST", "/v1/enclaves/t0/nodes:acquire", "POST /enclaves/{id}/nodes:acquire", ""},
		{"DELETE", "/v1/enclaves/t0/nodes/node03", "DELETE /enclaves/{id}/nodes/{id}", ""},
		{"POST", "/v1/enclaves/t0/nodes/node03:reclaim", "POST /enclaves/{id}/nodes/{id}:reclaim", ""},
		{"GET", "/v1/operations/op-0007", "GET /operations/{id}", "op-0007"},
		{"GET", "/v1/operations/op-0007/events", "GET /operations/{id}/events", "op-0007"},
		{"POST", "/v1/operations/op-0007:cancel", "POST /operations/{id}:cancel", "op-0007"},
		{"GET", "/v1/operations", "GET /operations", ""},
	} {
		if got := routeOf(c.method, c.path); got != c.route {
			t.Errorf("routeOf(%s %s) = %q, want %q", c.method, c.path, got, c.route)
		}
		if got := opInPath(c.path); got != c.op {
			t.Errorf("opInPath(%s) = %q, want %q", c.path, got, c.op)
		}
	}
}
