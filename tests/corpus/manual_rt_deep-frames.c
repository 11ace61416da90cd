/* Hand-written counterexample, oracle run (process abort).
* Each call of `f` takes a frame of 1,000,001 words, and only call depth
* was bounded (50,000), so `f(10000)` asked the VM for about 10^10 words:
* `sfe run` (and a serve daemon profiling the program) aborted with exit
* 134 inside the stack allocation. Both engines hold the live stack to
* `MAX_STATIC_WORDS` words: the 17th frame is refused with the same
* rendered runtime error in each, before any of it is allocated.
*/
int f(int n) {
    int a[1000000];
    a[0] = n;
    if (n == 0) return 0;
    return f(n - 1) + a[0];
}

int main(void) {
    return f(10000);
}
