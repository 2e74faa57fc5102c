package main

import "testing"

func fullEndToEnd() metricSet {
	m := metricSet{}
	for _, d := range endToEnd {
		m.set(d.name, 1, d.unit)
	}
	return m
}

func TestFinishEndToEnd(t *testing.T) {
	if err := finish(&result{Metrics: fullEndToEnd()}, false); err != nil {
		t.Fatalf("complete result refused: %v", err)
	}
	missing := fullEndToEnd()
	delete(missing, "model_loss")
	zero := fullEndToEnd()
	zero.set("op_ms_p50", 0, "ms")
	unit := fullEndToEnd()
	unit.set("setup_s", 1, "ms")
	extra := fullEndToEnd()
	extra.set("serve_p50_ms", 1, "ms")
	for name, m := range map[string]metricSet{"missing": missing, "zero": zero, "unit": unit, "undeclared": extra} {
		if err := finish(&result{Metrics: m}, false); err == nil {
			t.Errorf("%s: finish accepted %v", name, m)
		}
	}
}

func TestFinishPerLayerFillsIdleLayers(t *testing.T) {
	res := result{Metrics: metricSet{}}
	res.Metrics.set("model.forward_ms", 2, "ms")
	if err := finish(&res, true); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if res.Metrics.get("model.forward_ms") != 2 || res.Metrics.get("ckpt.saves") != 0 {
		t.Errorf("measured layer changed or idle layer not 0: %v", res.Metrics)
	}
}
