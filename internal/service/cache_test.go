package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/revlib"
)

func threecnot(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheKeyDeterministic(t *testing.T) {
	c := threecnot(t)
	opt := compress.Options{Mode: compress.Full, Effort: compress.EffortNormal}
	a, err := CacheKey(c, opt, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CacheKey(c, opt, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same inputs, different keys: %s vs %s", a, b)
	}
}

// TestCacheKeyPinned pins the keys of two fixed requests to the values
// binaries of this pipelineVersion write, so a warm result store keeps
// answering them: a change to the key's encoding must come with a
// pipelineVersion bump, and a bump re-records them.
func TestCacheKeyPinned(t *testing.T) {
	c, err := Source{Sample: "threecnot"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec OptionSpec
		want string
	}{
		{OptionSpec{}, "fd4ee1681e6767e28903b6096b5b472f0e09b58a58dc5907750aa7daae673707"},
		{OptionSpec{Mode: "dual", Effort: "normal", Seeds: []int64{3, 5}, SkipRouting: true,
			MeasurementSideIShape: true, DRC: true},
			"d81e593182d4a36d46408eb9a18255ca98df2d0798a5ead9812ce9e23fd238b9"},
	} {
		opt, seeds, err := tc.spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		got, err := CacheKey(c, opt, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%+v: key %s, want %s", tc.spec, got, tc.want)
		}
	}
}

func TestCacheKeyNormalizesSourceFormat(t *testing.T) {
	// The same gates reach the service as .real and as plain text; the
	// content address must not see the difference — or the circuit name.
	real := threecnot(t)
	var sb strings.Builder
	if err := circuit.WriteText(&sb, real); err != nil {
		t.Fatal(err)
	}
	text, err := circuit.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	text.Name = "renamed-workload"
	opt := compress.Options{Mode: compress.Full}
	a, err := CacheKey(real, opt, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CacheKey(text, opt, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("format/name changed the key: %s vs %s", a, b)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	c := threecnot(t)
	base, err := CacheKey(c, compress.Options{Mode: compress.Full}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name  string
		opt   compress.Options
		seeds []int64
	}{
		{"mode", compress.Options{Mode: compress.DualOnly}, []int64{1}},
		{"effort", compress.Options{Mode: compress.Full, Effort: compress.EffortHigh}, []int64{1}},
		{"seeds", compress.Options{Mode: compress.Full}, []int64{1, 2}},
		{"skip-routing", compress.Options{Mode: compress.Full, SkipRouting: true}, []int64{1}},
		{"drc", compress.Options{Mode: compress.Full, DRC: true}, []int64{1}},
	}
	for _, v := range variants {
		k, err := CacheKey(c, v.opt, v.seeds)
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("changing %s did not change the cache key", v.name)
		}
	}
	// A different circuit must miss too.
	other, err := revlib.ParseString(revlib.Samples["toffoli3"])
	if err != nil {
		t.Fatal(err)
	}
	k, err := CacheKey(other, compress.Options{Mode: compress.Full}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if k == base {
		t.Error("different circuit produced the same cache key")
	}
}

// cacheKeyExcluded lists the compress.Options fields CacheKey leaves out
// on purpose: Seed is overridden per seed from the seed set, and
// KeepGeometry only materializes a visualization artifact the service
// never returns.
var cacheKeyExcluded = map[string]bool{"Seed": true, "KeepGeometry": true}

// TestCacheKeyCoversEveryOption walks compress.Options by reflection:
// flipping any field must change the key unless the field is on the
// exclusion list, and flipping an excluded field must not. A new Options
// field therefore fails this test until it is keyed or excluded.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	c := threecnot(t)
	base, err := CacheKey(c, compress.Options{}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(compress.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var opt compress.Options
		v := reflect.ValueOf(&opt).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		default:
			t.Fatalf("Options.%s has kind %s; teach this test to change it", f.Name, v.Kind())
		}
		k, err := CacheKey(c, opt, []int64{1})
		if err != nil {
			t.Fatal(err)
		}
		switch keyed := k != base; {
		case cacheKeyExcluded[f.Name] && keyed:
			t.Errorf("Options.%s is excluded but changes the cache key", f.Name)
		case !cacheKeyExcluded[f.Name] && !keyed:
			t.Errorf("Options.%s does not change the cache key: hash it in CacheKey or add it to cacheKeyExcluded", f.Name)
		}
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	m := newMetrics()
	rc := newResultCache(2, nil, obs.NopLogger(), m)
	pay := func(i int) *ResultPayload { return &ResultPayload{Name: fmt.Sprintf("p%d", i)} }

	rc.Put("a", pay(1))
	rc.Put("b", pay(2))
	if _, ok := rc.Get("a"); !ok { // promotes "a" to most recent
		t.Fatal("a missing before eviction")
	}
	rc.Put("c", pay(3)) // evicts "b", the least recently used
	if _, ok := rc.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if _, ok := rc.Get("a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := rc.Get("c"); !ok {
		t.Fatal("newest entry missing")
	}
	if got := m.cacheEvictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if rc.Len() != 2 {
		t.Fatalf("len = %d, want 2", rc.Len())
	}
}

func TestResultCacheRefreshKeepsSingleEntry(t *testing.T) {
	m := newMetrics()
	rc := newResultCache(2, nil, obs.NopLogger(), m)
	rc.Put("a", &ResultPayload{Name: "old"})
	rc.Put("a", &ResultPayload{Name: "new"})
	if rc.Len() != 1 {
		t.Fatalf("len = %d, want 1 after refresh", rc.Len())
	}
	p, ok := rc.Get("a")
	if !ok || p.Name != "new" {
		t.Fatalf("got %+v, want refreshed payload", p)
	}
}
