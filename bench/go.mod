// The benchmark is a module of its own so that the repository's build and
// tier-1 tests (go build ./... && go test ./... at the root) never compile
// it. Its path sits under hyperplane/ so it may import hyperplane/internal/...
module hyperplane/bench

go 1.22

require hyperplane v0.0.0

replace hyperplane => ../
