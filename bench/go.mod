module nexus/bench

go 1.22

require nexus v0.0.0

replace nexus => ../
