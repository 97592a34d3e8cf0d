// Package homonyms is a production-quality Go reproduction of "Byzantine
// Agreement with Homonyms" (Delporte-Gallet, Fauconnier, Guerraoui,
// Kermarrec, Ruppert, Tran-The; PODC 2011): a complete implementation of
// Byzantine agreement in systems where n processes share only ℓ
// authenticated identifiers, together with executable versions of the
// paper's lower-bound constructions and a benchmark harness that
// regenerates every table and figure of the paper.
//
// The public entry point is internal/core (algorithm selection per the
// paper's Table 1 and execution assembly); internal/hom holds the model
// types. See README.md for the architecture overview and the performance
// model, and ./benchmark for what a decision costs.
package homonyms
