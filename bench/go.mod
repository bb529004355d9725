module ldpjoin/bench

go 1.24

require ldpjoin v0.0.0

replace ldpjoin => ../
