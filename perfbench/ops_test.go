package main

import (
	"reflect"
	"testing"
)

func TestTakeMixHasTheMixExactly(t *testing.T) {
	keys := keyspace{queries: []string{"a", "b", "c"}, ids: []string{"x", "y"}}
	for _, n := range []int{1, 7, 300, 1201} {
		ops := newUniformSampler(1, keys).takeMix(n)
		if len(ops) != n {
			t.Fatalf("n=%d: got %d ops", n, len(ops))
		}
		count := map[string]int{}
		for _, o := range ops {
			count[o.Endpoint]++
		}
		for _, m := range opMix {
			want := m.p * float64(n)
			if d := float64(count[m.endpoint]) - want; d < -1 || d > 1 {
				t.Errorf("n=%d: %d %s ops, want %.1f", n, count[m.endpoint], m.endpoint, want)
			}
		}
	}
	a := newUniformSampler(5, keys).takeMix(300)
	if !reflect.DeepEqual(a, newUniformSampler(5, keys).takeMix(300)) {
		t.Error("the same seed drew different ops")
	}
	if reflect.DeepEqual(a, newUniformSampler(6, keys).takeMix(300)) {
		t.Error("different seeds drew the same ops")
	}
}
