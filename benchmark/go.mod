// The benchmark is a module of its own so the root module's build and tests
// neither compile nor depend on it; the tfhpc/ path prefix is what lets it
// import tfhpc/internal/... (Go checks internal imports by module path).
module tfhpc/benchmark

go 1.23

require tfhpc v0.0.0

replace tfhpc => ../
