/* Hand-written counterexample, oracle compile (diagnostic).
* A 4e9-word local: static analysis accepted it and `sfe run` aborted
* in `Vm::run` allocating the frame. Every frame must fit sema's
* static-size budget, so the declaration is a rendered semantic
* diagnostic.
*/
int main(void) {
    int a[4000000000];
    a[1] = 2;
    return a[1];
}
