module intellog/bench

go 1.22

require intellog v0.0.0

replace intellog => ../
