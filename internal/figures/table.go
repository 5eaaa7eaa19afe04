// Package figures reproduces every data-bearing table and figure of the
// paper's evaluation (Figs. 4-14) plus a summary of Observations 1-9. Each
// generator runs the relevant experiment on the simulator and returns a
// printable Table; the bench harness at the repository root exposes one
// testing.B benchmark per figure, and cmd/hccreport renders them from the
// command line. Regenerating many figures at once (GenerateAll, a full
// hccreport run) fans the generators out across CPU cores.
package figures

import "hccsim/internal/tab"

// Table is one reproduced figure as rows and columns. It is an alias of the
// shared leaf type that batch sweeps render too.
type Table = tab.Table
