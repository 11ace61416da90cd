/* Hand-written counterexample, oracle compile (diagnostic).
* 4e9 words of global data: even the static-only `sfe blocks` aborted
* (exit 134) when sema asked for a 64 GB allocation to lay out the
* initializer image. The data image must fit sema's static-size
* budget, so the declaration is a rendered semantic diagnostic.
*/
int a[4000000000];
int main(void) {
    return 0;
}
