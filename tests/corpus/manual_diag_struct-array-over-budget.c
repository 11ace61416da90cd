/* Hand-written counterexample, oracle compile (diagnostic).
* Each struct is 3e9 words, a size a type may have; four of them make
* 1.2e10 words of global data, a 192 GB allocation that aborted
* `sfe blocks`. The data image must fit sema's static-size budget, so
* the declaration is a rendered semantic diagnostic.
*/
struct T { int x[3000000000]; };
struct T t[4];
int main(void) {
    return 0;
}
