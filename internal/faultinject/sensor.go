package faultinject

import (
	"sync"

	"ecocapsule/internal/sensors"
)

// StuckSensor wraps a sensors.Sensor and freezes its output at the first
// sampled reading — the classic stuck-at fault of a debonded strain gauge
// or a corroded humidity cell: the wire protocol stays perfectly healthy
// while the data silently stops tracking reality. Attach it over a
// capsule's real sensor (node.AttachSensor replaces by type) to test that
// trend analysis flags the freeze.
type StuckSensor struct {
	mu    sync.Mutex
	inner sensors.Sensor
	//ecolint:guardedby mu
	frozen []byte
}

// Freeze wraps s with stuck-at-first-value behaviour.
func Freeze(s sensors.Sensor) *StuckSensor {
	return &StuckSensor{inner: s}
}

// Type implements sensors.Sensor.
func (s *StuckSensor) Type() sensors.SensorType { return s.inner.Type() }

// PowerDraw implements sensors.Sensor (the hardware still draws power).
func (s *StuckSensor) PowerDraw() float64 { return s.inner.PowerDraw() }

// AppendSample implements sensors.Sensor: the first call samples the
// wrapped sensor; every call appends that reading regardless of env.
func (s *StuckSensor) AppendSample(dst []byte, env sensors.Environment) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen == nil {
		s.frozen = s.inner.AppendSample(nil, env)
	}
	return append(dst, s.frozen...)
}
