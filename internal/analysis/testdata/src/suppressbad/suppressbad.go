// Fixture for a malformed ignore directive: no reason is given, so the
// directive suppresses nothing and is itself reported.
package suppressbad

//ecolint:ignore dimcheck
const dt = 1e-3 //ecolint:unit s
