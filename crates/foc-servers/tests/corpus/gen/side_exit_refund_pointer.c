// n=-1 churn=77 sequence=0
long g0[13];
long f(long n) {
    long x = 2;
    long t = 0;
    int a0[5];
    char* z = "z%ana";
    int* q = a0 + 3;
    *q++ = g0[-1] | z[9223372036854775807];
    if ((*q = 11) <= x++) {
    } else {
        if (15 < 2 < n % 6) {
            t = x--;
        }
    }
}
