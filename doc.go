// Package ldpjoin estimates join sizes over private data under local
// differential privacy, implementing the LDPJoinSketch and LDPJoinSketch+
// algorithms of Zhang, Liu & Yin, "Sketches-based join size estimation
// under local differential privacy" (ICDE 2024).
//
// # The problem
//
// Two untrusted-server populations hold private join-attribute values
// (say, diagnosis codes in two hospitals). The server wants
// |A ⋈ B| = Σ_d f_A(d)·f_B(d) — the join size / inner product of the two
// frequency vectors — without ever seeing a true value. Each client
// randomizes its value locally (ε-LDP) and sends a single perturbed bit
// plus two sketch coordinates; the server aggregates the reports into a
// fast-AGMS-style sketch whose products estimate join sizes and whose
// cells estimate frequencies.
//
// # Quick start
//
//	cfg := ldpjoin.DefaultConfig()          // k=18, m=1024, ε=4
//	proto, err := ldpjoin.NewProtocol(cfg)  // shared by both populations
//	...
//	aggA := proto.NewAggregator()
//	aggA.AddColumn(valuesA, 1)              // simulate clients locally, or
//	                                        // feed Report values from the wire
//	skA := aggA.Sketch()
//	skB := ...                              // same for the B population
//	est := skA.JoinSize(skB)
//
// For skewed data at scale, LDPJoinSketch+ reduces hash-collision error
// by separating frequent and infrequent values without a privacy loss:
//
//	res, err := ldpjoin.JoinSizePlus(valuesA, valuesB, domain, ldpjoin.PlusConfig{
//		Config: cfg, SampleRate: 0.1, Theta: 0.01,
//	})
//
// Chain (multi-way) joins are estimated with NewChainProtocol. The
// runnable programs under examples/ walk through the paper's motivating
// applications: private similarity for data valuation, private dataset
// discovery, multiway joins, and a TCP client/server deployment.
//
// The deployable server side lives in internal/service (the HTTP column
// API) on top of the ingest columns in internal/ingest; cmd/ldpjoind
// runs it. See ARCHITECTURE.md for the
// full package map and data flow.
//
// All randomness is seed-driven and all estimators are deterministic
// functions of (data, seeds), so results reproduce exactly.
package ldpjoin
