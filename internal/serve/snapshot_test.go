package serve

import (
	"bytes"
	"reflect"
	"testing"

	"mse/internal/core"
)

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot: it must return
// a count or an error, never panic, and a snapshot it accepts must round
// trip through SaveSnapshot into a fresh registry with the same engine
// names and generations.  Seeds are a snapshot of the registry the serve
// tests build, plus truncated and bit-flipped copies of it.
//
//	go test -run '^$' -fuzz '^FuzzLoadSnapshot$' -fuzztime 10s ./internal/serve
func FuzzLoadSnapshot(f *testing.F) {
	reg, _ := testRegistry(f)
	var snap bytes.Buffer
	if err := reg.SaveSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	b := snap.Bytes()
	if n, err := NewRegistry(core.DefaultOptions()).LoadSnapshot(bytes.NewReader(b)); n != 1 || err != nil {
		f.Fatalf("the seed snapshot loaded %d engines, %v; want 1", n, err)
	}
	f.Add(b)
	for _, n := range []int{0, 1, len(b) / 3, len(b) / 2, len(b) - 3} {
		f.Add(b[:n])
	}
	for _, i := range []int{2, 20, len(b) / 3, len(b) / 2, len(b) - 4} {
		flipped := bytes.Clone(b)
		flipped[i] ^= 0x04
		f.Add(flipped)
	}
	f.Add([]byte(`{"version":1,"engines":[{"name":"a","generation":0,"wrapper":null},{"name":"a","generation":7,"wrapper":{}}]}`))
	f.Add([]byte(`{"version":1,"engines":[{"name":"","wrapper":{}}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first := NewRegistry(core.DefaultOptions())
		if _, err := first.LoadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := first.SaveSnapshot(&out); err != nil {
			t.Fatalf("saving an accepted snapshot: %v", err)
		}
		second := NewRegistry(core.DefaultOptions())
		if _, err := second.LoadSnapshot(&out); err != nil {
			t.Fatalf("reloading what SaveSnapshot wrote: %v\n%s", err, out.Bytes())
		}
		if got, want := generations(second), generations(first); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the fleet: got %v, want %v", got, want)
		}
	})
}

// generations maps each engine of r to its generation.
func generations(r *Registry) map[string]uint64 {
	out := map[string]uint64{}
	for name, st := range r.Status() {
		out[name] = st.Generation
	}
	return out
}
