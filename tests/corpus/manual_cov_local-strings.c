/* Hand-written coverage entry, oracles all: local char arrays with
* string initializers (the `InitWordsLocal` op), which the fuzz
* generator never emits. A plain `char s[] = "..."`, one sized to its
* literal and one sized longer (its tail must read as zeros), each
* read and written in loops, re-initialized on every call and every
* loop iteration, and passed to the C library.
*/
int count(char *p, int c) {
    int n = 0;
    while (*p) {
        if (*p == c) n++;
        p++;
    }
    return n;
}

int rotate(int k) {
    char word[] = "profile";
    char tag[4] = "abc";
    char pad[12] = "hot";
    int i, sum = 0;
    for (i = 0; i < 12; i++) {
        sum = sum * 3 + pad[i];
        if (pad[i] == 0) pad[i] = 'a' + (i + k) % 26;
    }
    pad[11] = 0;
    for (i = 0; word[i]; i++) {
        if (i % 2 == k % 2) word[i] = word[i] - 'a' + 'A';
    }
    tag[k % 3] = '0' + k % 10;
    printf("%s %s %s %d\n", word, tag, pad, count(pad, 'a' + k % 26));
    return sum % 1000 + strlen(word) + strlen(tag);
}

int main(void) {
    int k, total = 0;
    for (k = 0; k < 6; k++) {
        char line[] = "edge";
        line[k % 4] = 'x';
        total += rotate(k) + count(line, 'e');
        printf("%s\n", line);
    }
    printf("%d\n", total);
    return total % 256;
}
