package ceph

import (
	"slices"
	"strings"
	"testing"
)

// TestPlacementPinned pins the OSDs (primary first) that a fixed table of
// object names lands on. The table was recorded when keys were formatted
// with fmt.Sprintf("%s|osd%d"); any change to how placement builds or
// hashes its keys moves objects and fails here.
func TestPlacementPinned(t *testing.T) {
	long := strings.Repeat("x", 200)
	rows := []struct {
		osds, repl int
		name       string
		want       []int
	}{
		{27, 3, "", []int{8, 12, 1}},
		{27, 3, "a", []int{12, 9, 1}},
		{27, 3, "pool/obj", []int{4, 7, 5}},
		{27, 3, "img-charlie-node00-vol.00000000", []int{5, 24, 13}},
		{27, 3, "img-charlie-node07-vol.00000255", []int{5, 18, 26}},
		{27, 3, "fedora28.00000003", []int{4, 18, 12}},
		{27, 3, "with|pipe|osd3", []int{11, 3, 18}},
		{27, 3, "ünïcødé-object", []int{3, 13, 4}},
		{27, 3, long, []int{23, 11, 13}},
		{9, 2, "", []int{8, 1}},
		{9, 2, "a", []int{1, 3}},
		{9, 2, "pool/obj", []int{4, 7}},
		{9, 2, "img-charlie-node00-vol.00000000", []int{5, 2}},
		{9, 2, "img-charlie-node07-vol.00000255", []int{5, 8}},
		{9, 2, "fedora28.00000003", []int{4, 7}},
		{9, 2, "with|pipe|osd3", []int{3, 6}},
		{9, 2, "ünïcødé-object", []int{3, 4}},
		{9, 2, long, []int{3, 1}},
		{3, 1, "", []int{1}},
		{3, 1, "a", []int{1}},
		{3, 1, "pool/obj", []int{2}},
		{3, 1, "img-charlie-node00-vol.00000000", []int{2}},
		{3, 1, "img-charlie-node07-vol.00000255", []int{2}},
		{3, 1, "fedora28.00000003", []int{2}},
		{3, 1, "with|pipe|osd3", []int{1}},
		{3, 1, "ünïcødé-object", []int{2}},
		{3, 1, long, []int{1}},
	}
	for _, r := range rows {
		c := newCluster(t, r.osds, r.repl)
		var got []int
		for _, o := range c.placement(r.name) {
			got = append(got, o.ID)
		}
		if !slices.Equal(got, r.want) {
			t.Errorf("%d OSDs ×%d: placement(%.40q) = %v, want %v", r.osds, r.repl, r.name, got, r.want)
		}
	}
}

// BenchmarkPlacement places the objects of a Charlie node's volume on
// the paper's 27-OSD, 3-replica pool: the lookup every object access
// and every object of a release's DeletePrefix makes.
func BenchmarkPlacement(b *testing.B) {
	c := newCluster(b, 27, 3)
	d, err := NewImageDevice(c, "img-charlie-node00-vol", ObjectSize)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = d.objName(int64(i))
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.placement(names[i%len(names)])
		i++
	}
}
