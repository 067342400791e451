package expt

import (
	"fmt"
	"math"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/material"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

// Table1 reproduces the Appendix B materials table and cross-checks the
// derived acoustic quantities.
func Table1() *Result {
	r := &Result{
		ID:     "table1",
		Title:  "Mix proportions and properties of concretes (Appendix B)",
		Header: []string{"property", "NC", "UHPC", "UHPFRC"},
	}
	cs := material.Concretes()
	row := func(name string, f func(*material.Material) string) {
		cells := []string{name}
		for _, m := range cs {
			cells = append(cells, f(m))
		}
		r.Rows = append(r.Rows, cells)
	}
	row("cement (kg/m³)", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.Cement) })
	row("silica fume", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.SilicaFume) })
	row("fly ash", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.FlyAsh) })
	row("quartz powder", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.QuartzPower) })
	row("sand", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.Sand) })
	row("granite", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.Granite) })
	row("steel fiber", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.SteelFiber) })
	row("water", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.Water) })
	row("HRWR", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.Mix.HRWR) })
	row("f_co (MPa)", func(m *material.Material) string { return fmt.Sprintf("%.1f", m.CompressiveStrength/units.MPa) })
	row("E_c (GPa)", func(m *material.Material) string { return fmt.Sprintf("%.1f", m.ElasticModulus/units.GPa) })
	row("ν", func(m *material.Material) string { return fmt.Sprintf("%.2f", m.PoissonRatio) })
	row("ε_co (%)", func(m *material.Material) string { return fmt.Sprintf("%.3f", m.PeakStrain*100) })
	row("derived V_P (m/s)", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.VP()) })
	row("derived V_S (m/s)", func(m *material.Material) string { return fmt.Sprintf("%.0f", m.VS()) })
	row("impedance (MRayl)", func(m *material.Material) string { return fmt.Sprintf("%.2f", m.Impedance()/1e6) })

	nc, uhpc, frc := cs[0], cs[1], cs[2]
	r.addCheck("f_co orders NC < UHPC < UHPFRC",
		nc.CompressiveStrength < uhpc.CompressiveStrength &&
			uhpc.CompressiveStrength < frc.CompressiveStrength)
	r.addCheck("UHPFRC is the strongest published concrete (215 MPa)",
		math.Abs(frc.CompressiveStrength/units.MPa-215.0) < 1e-9)
	r.addCheck("every mix totals a plausible bulk density", func() bool {
		for _, m := range cs {
			if tot := m.Mix.Total(); tot < 2000 || tot > 2900 {
				return false
			}
		}
		return true
	}())
	r.Notes = append(r.Notes,
		"paper: Table 1 lists mixes for NC, UHPC, UHPSSC (steel-fibre) — reproduced verbatim",
		"derived velocities/impedances feed the channel simulator")
	return r
}

// Fig04 sweeps the incident angle and reports the two mode amplitudes at
// the PLA→concrete boundary, locating both critical angles.
func Fig04() *Result {
	r := &Result{
		ID: "fig04", Title: "Relative amplitudes of P and S waves vs incident angle",
		XLabel: "incident angle (deg)", YLabel: "relative amplitude",
		Header: []string{"angle(deg)", "P", "S"},
	}
	b := physics.Boundary{From: material.PLA(), To: material.UHPC()}
	var px, py, sy []float64
	for deg := 0.0; deg <= 80; deg += 5 {
		p, s := b.ModeAmplitudes(units.Deg2Rad(deg))
		px = append(px, deg)
		py = append(py, p)
		sy = append(sy, s)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f", deg), fmt.Sprintf("%.3f", p), fmt.Sprintf("%.3f", s),
		})
	}
	r.Series = []Series{{Name: "P-wave", X: px, Y: py}, {Name: "S-wave", X: px, Y: sy}}

	ca1 := units.Rad2Deg(b.FirstCriticalAngle())
	ca2 := units.Rad2Deg(b.SecondCriticalAngle())
	r.Notes = append(r.Notes,
		fmt.Sprintf("first critical angle %.1f° (paper ≈34°), second %.1f° (paper ≈73°)", ca1, ca2))
	r.addCheck("first critical angle ≈34°", math.Abs(ca1-34) < 2)
	r.addCheck("second critical angle ≈73°", math.Abs(ca2-73) < 2)
	pAt0, sAt0 := b.ModeAmplitudes(0)
	r.addCheck("P dominates at normal incidence", pAt0 > 0.95 && sAt0 == 0)
	pIn, sIn := b.ModeAmplitudes(units.Deg2Rad(50))
	r.addCheck("only S resides inside the window (50°)", pIn == 0 && sIn > 0.8)
	pOut, sOut := b.ModeAmplitudes(units.Deg2Rad(78))
	r.addCheck("no body waves beyond the second critical angle", pOut == 0 && sOut == 0)
	return r
}

// Fig05 sweeps the TX frequency 20..400 kHz over the four concrete blocks
// and reports the RX amplitude — the concrete frequency response.
func Fig05() *Result {
	r := &Result{
		ID: "fig05", Title: "Concrete frequency response (20–400 kHz sweep)",
		XLabel: "TX frequency (kHz)", YLabel: "RX amplitude (mV)",
		Header: []string{"f(kHz)", "NC-7cm", "NC-15cm", "UHPC-15cm", "UHPFRC-15cm"},
	}
	// The 7 cm NC block responds a bit stronger than the 15 cm one (less
	// propagation loss).
	type block struct {
		name  string
		m     *material.Material
		scale float64
	}
	blocks := []block{
		{"NC-7cm", material.NC(), 1.35},
		{"NC-15cm", material.NC(), 1.0},
		{"UHPC-15cm", material.UHPC(), 1.0},
		{"UHPFRC-15cm", material.UHPFRC(), 1.0},
	}
	var xs []float64
	series := make([]Series, len(blocks))
	for i, blk := range blocks {
		series[i].Name = blk.name
	}
	for f := 20.0; f <= 400; f += 10 {
		xs = append(xs, f)
		cells := []string{fmt.Sprintf("%.0f", f)}
		for i, blk := range blocks {
			mv := blk.m.ResponseVolts(f*units.KHz) * blk.scale * 1000
			series[i].X = append(series[i].X, f)
			series[i].Y = append(series[i].Y, mv)
			cells = append(cells, fmt.Sprintf("%.0f", mv))
		}
		r.Rows = append(r.Rows, cells)
	}
	_ = xs
	r.Series = series

	peakAt := func(s Series) (float64, float64) {
		bestX, bestY := 0.0, -1.0
		for i := range s.X {
			if s.Y[i] > bestY {
				bestX, bestY = s.X[i], s.Y[i]
			}
		}
		return bestX, bestY
	}
	okBand := true
	for _, s := range series {
		if fx, _ := peakAt(s); fx < 200 || fx > 250 {
			okBand = false
		}
	}
	r.addCheck("resonance between 200 and 250 kHz for every block", okBand)
	_, ncPeak := peakAt(series[1])
	_, uhpcPeak := peakAt(series[2])
	_, frcPeak := peakAt(series[3])
	r.addCheck("UHPC/UHPFRC peaks far exceed NC", uhpcPeak > 2*ncPeak && frcPeak > 2*ncPeak)
	last := func(s Series) float64 { return s.Y[len(s.Y)-1] }
	decayOK := true
	for _, s := range series {
		_, pk := peakAt(s)
		if last(s) > 0.25*pk {
			decayOK = false
		}
	}
	r.addCheck("rapid attenuation beyond the carrier band", decayOK)
	r.Notes = append(r.Notes,
		fmt.Sprintf("NC peak %.0f mV vs UHPFRC peak %.0f mV (paper: ≈2400 vs ≈6800)", ncPeak, frcPeak))
	return r
}

// Fig07 renders a PIE bit-0 symbol with classic OOK (ring tail visible)
// and with the FSK anti-ring trick (tail suppressed), comparing the
// low-edge residual energy.
func Fig07() *Result {
	r := &Result{
		ID: "fig07", Title: "Ring effect: OOK tailing vs FSK off-resonance suppression",
		XLabel: "time (ms)", YLabel: "amplitude",
		Header: []string{"rendering", "low-edge RMS", "high-edge RMS", "tail ratio"},
	}
	const fs = 1 * units.MHz
	// The evaluation's downlink transmitter renders both: the same PIE
	// symbol, carrier and ring, with the low edge switched off (OOK) or
	// moved to the off-resonant tone (FSK).
	tx := phy.NewDownlinkTX(fs, material.UHPC())
	tx.Modulation = phy.ModulationOOK
	ook, err := tx.Modulate([]byte{0})
	if err != nil {
		panic(err)
	}
	tx.Modulation = phy.ModulationFSK
	fsk, err := tx.Modulate([]byte{0})
	if err != nil {
		panic(err)
	}
	hi := tx.Synth.Samples(tx.PIE.HighZero)
	lo := tx.Synth.Samples(tx.PIE.PW)
	measure := func(name string, x []float64) (lowRMS float64) {
		highRMS := dsp.RMS(x[:hi])
		lowRMS = dsp.RMS(x[hi : hi+lo])
		r.Rows = append(r.Rows, []string{
			name,
			fmt.Sprintf("%.3f", lowRMS),
			fmt.Sprintf("%.3f", highRMS),
			fmt.Sprintf("%.3f", lowRMS/highRMS),
		})
		return lowRMS
	}
	ookLow := measure("OOK (traditional)", ook)
	fskLow := measure("FSK (anti-ring)", fsk)

	toSeries := func(name string, x []float64) Series {
		s := Series{Name: name}
		step := 10
		for i := 0; i < len(x); i += step {
			s.X = append(s.X, float64(i)/fs*1000)
			s.Y = append(s.Y, x[i])
		}
		return s
	}
	r.Series = []Series{toSeries("OOK", ook), toSeries("FSK", fsk)}

	settle := tx.Ring.SettleTime(0.03)
	r.addCheck("OOK tail pollutes the low edge", ookLow > 0.1)
	r.addCheck("FSK suppresses the tail below the OOK residual", fskLow < ookLow)
	r.addCheck("ring settle time ≈0.3 ms (Fig. 7a)", settle > 0.2e-3 && settle < 0.4e-3)
	r.Notes = append(r.Notes,
		fmt.Sprintf("OOK low-edge RMS %.3f vs FSK %.3f; ring settle %.2f ms", ookLow, fskLow, settle*1e3))
	return r
}
