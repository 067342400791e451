// Fixture for //ecolint:ignore directive handling, exercised through
// dimcheck's bare unit-multiplier rule. Only dimcheck runs on it, so a
// directive for another analyzer is not judged for suppressing nothing.
package suppress

//ecolint:ignore dimcheck calibration constant matches the scope's raw tick
const dt = 1e-3 //ecolint:unit s

//ecolint:unit s
const dtInline = 1e-3 //ecolint:ignore dimcheck raw value intentional here

//ecolint:ignore all sweeping suppression with a reason also applies
const dtAll = 1e-3 //ecolint:unit s

//ecolint:ignore floatcmp directive names a different analyzer, so it does not apply
const dtWrong = 1e-3 //ecolint:unit s // want `bare unit multiplier 1e-3 in a s value; use units\.MS`

//ecolint:ignore unitsafety names no analyzer, so it is reported and suppresses nothing // want `ignore directive names "unitsafety", which is not an analyzer`
const dtUnknown = 1e-3 //ecolint:unit s // want `bare unit multiplier 1e-3 in a s value; use units\.MS`

const dtPlain = 1e-3 //ecolint:unit s // want `bare unit multiplier 1e-3 in a s value; use units\.MS`

//ecolint:ignore dimcheck stale: 2e-3 is not a unit multiplier, so nothing fires // want `ignore directive for "dimcheck" suppresses nothing: no finding on its line or the next`
const dtStale = 2e-3 //ecolint:unit s
