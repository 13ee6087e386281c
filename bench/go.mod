// The benchmark is a module of its own so that it builds from the files
// under bench/ plus the simulator it measures. The module path sits under
// slacksim/ so that the simulator's internal packages stay importable.
module slacksim/bench

go 1.22

require slacksim v0.0.0

replace slacksim => ../
