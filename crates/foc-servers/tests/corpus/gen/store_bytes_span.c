// n=-1 churn=77 sequence=0
long g0[13];
long f(long n) {
    long t = 0;
    int a0[5];
    char* z = "z%ana";
    int* q = a0 + 3;
    *q++ = g0[-1] | z[9223372036854775807];
    char* r = (char*) malloc(24);
    t = t + (long) memset(r + 10, 109, 11);
}
