/* Hand-written counterexample, oracle run (process abort).
* `malloc(4000000000)` asked the VM for 4e9 words and `sfe run` (and a
* serve daemon profiling the program) aborted with exit 134 inside the
* heap allocation. A run's heap is held to `MAX_STATIC_WORDS` words; a
* request past it returns NULL, as C's malloc does, and the heap stays
* usable for requests that fit.
*/
int main(void) {
    char *p;
    char *q;
    p = malloc(4000000000);
    q = malloc(8);
    q[7] = 3;
    printf("%d %d\n", p == 0, q[7] + q[0]);
    return p == 0;
}
